"""Property-based tests on LEC features and the pruning/assembly invariants."""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from reference_joins import crossing_features_joinable as features_joinable
from reference_joins import group_features_by_sign

from repro.core import LECFeaturePruner, compute_lec_features, lec_feature_of
from repro.core.assembly import BasicAssembler, LECAssembler
from repro.core.partial_eval import evaluate_fragment
from repro.distributed import build_cluster
from repro.core.partial_match import check_local_partial_match
from repro.datasets import random_assignment, random_connected_query, random_graph
from repro.partition import build_partitioned_graph
from repro.sparql import QueryGraph

seeds = st.integers(min_value=0, max_value=5_000)
fragment_counts = st.integers(min_value=2, max_value=4)
query_sizes = st.integers(min_value=2, max_value=4)


def random_setting(seed: int, num_fragments: int, query_edges: int):
    graph = random_graph(seed, num_vertices=18, num_edges=36, num_predicates=3)
    query = random_connected_query(graph, seed + 17, num_edges=query_edges, constant_probability=0.2)
    assignment = random_assignment(graph, seed + 5, num_fragments)
    partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
    query_graph = QueryGraph(query.bgp)
    lpms_per_fragment = {
        site.site_id: evaluate_fragment(site.fragment, query_graph, graph=site.graph).local_partial_matches
        for site in build_cluster(partitioned)
    }
    return partitioned, query_graph, lpms_per_fragment


class TestLocalPartialMatchInvariants:
    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=12, deadline=None)
    def test_every_enumerated_lpm_satisfies_definition5(self, seed, num_fragments, query_edges):
        partitioned, query_graph, lpms_per_fragment = random_setting(seed, num_fragments, query_edges)
        for fragment in partitioned:
            for lpm in lpms_per_fragment[fragment.fragment_id]:
                assert check_local_partial_match(lpm, query_graph, fragment) == []

    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=12, deadline=None)
    def test_lpms_in_same_class_share_feature(self, seed, num_fragments, query_edges):
        _, _, lpms_per_fragment = random_setting(seed, num_fragments, query_edges)
        for lpms in lpms_per_fragment.values():
            classes = compute_lec_features(lpms)
            for feature, members in classes.items():
                for member in members:
                    assert lec_feature_of(member) == feature


class TestTheorem5:
    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=12, deadline=None)
    def test_same_sign_features_are_never_joinable(self, seed, num_fragments, query_edges):
        _, query_graph, lpms_per_fragment = random_setting(seed, num_fragments, query_edges)
        features = [
            lec_feature_of(lpm) for lpms in lpms_per_fragment.values() for lpm in lpms
        ]
        groups = group_features_by_sign(features)
        for members in groups.values():
            for i, left in enumerate(members):
                for right in members[i + 1 :]:
                    assert not features_joinable(left, right, query_graph)

    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=12, deadline=None)
    def test_joinability_is_symmetric(self, seed, num_fragments, query_edges):
        _, query_graph, lpms_per_fragment = random_setting(seed, num_fragments, query_edges)
        features = [lec_feature_of(lpm) for lpms in lpms_per_fragment.values() for lpm in lpms]
        for left in features[:12]:
            for right in features[:12]:
                assert features_joinable(left, right, query_graph) == features_joinable(
                    right, left, query_graph
                )


class TestPruningAndAssemblyInvariants:
    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=10, deadline=None)
    def test_pruning_preserves_assembled_answers(self, seed, num_fragments, query_edges):
        _, query_graph, lpms_per_fragment = random_setting(seed, num_fragments, query_edges)
        all_lpms = [lpm for lpms in lpms_per_fragment.values() for lpm in lpms]
        classes = compute_lec_features(all_lpms)
        outcome = LECFeaturePruner(query_graph).prune(list(classes))
        surviving = [
            lpm for feature, members in classes.items() if outcome.survives(feature) for lpm in members
        ]
        assembler = LECAssembler(query_graph)
        before = {m.assignment for m in assembler.assemble(all_lpms).matches}
        after = {m.assignment for m in assembler.assemble(surviving).matches}
        assert before == after

    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=10, deadline=None)
    def test_basic_and_lec_assembly_agree(self, seed, num_fragments, query_edges):
        _, query_graph, lpms_per_fragment = random_setting(seed, num_fragments, query_edges)
        all_lpms = [lpm for lpms in lpms_per_fragment.values() for lpm in lpms]
        basic = BasicAssembler(query_graph).assemble(all_lpms)
        lec = LECAssembler(query_graph).assemble(all_lpms)
        assert {m.assignment for m in basic.matches} == {m.assignment for m in lec.matches}

    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=10, deadline=None)
    def test_assembled_matches_are_complete_and_consistent(self, seed, num_fragments, query_edges):
        _, query_graph, lpms_per_fragment = random_setting(seed, num_fragments, query_edges)
        all_lpms = [lpm for lpms in lpms_per_fragment.values() for lpm in lpms]
        outcome = LECAssembler(query_graph).assemble(all_lpms)
        for match in outcome.matches:
            assert match.is_complete(query_graph)
            assert len(match.matched_vertices()) == query_graph.num_vertices
