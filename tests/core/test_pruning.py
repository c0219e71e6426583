"""Unit tests for the LEC feature-based pruning (Algorithm 2)."""

import pytest

from reference_joins import lec_feature

from repro.core import LECFeaturePruner, compute_lec_features, prune_features
from repro.core.partial_eval import evaluate_fragment
from repro.partition import HashPartitioner
from repro.rdf import Namespace, Triple
from repro.sparql import QueryGraph
from repro.datasets import lubm
from repro.store import evaluate_centralized

EX = Namespace("http://example.org/")


class TestPruner:
    def test_empty_input(self, example_query_graph):
        outcome = LECFeaturePruner(example_query_graph).prune([])
        assert outcome.total_features == 0
        assert outcome.surviving == set()
        assert outcome.pruned_count == 0

    def test_single_complete_feature_survives(self, example_query_graph):
        full_sign = (1 << example_query_graph.num_vertices) - 1
        feature = lec_feature(0, [(0, Triple(EX.term("a"), EX.term("p"), EX.term("b")))], full_sign)
        outcome = LECFeaturePruner(example_query_graph).prune([feature])
        assert outcome.survives(feature)

    def test_isolated_feature_is_pruned(self, example_query_graph):
        feature = lec_feature(0, [(0, Triple(EX.term("a"), EX.term("p"), EX.term("b")))], 0b1)
        outcome = LECFeaturePruner(example_query_graph).prune([feature])
        assert not outcome.survives(feature)
        assert outcome.pruned_count == 1

    def test_paper_example_prunes_exactly_one_feature(self, example_partitioning, example_query_graph):
        features = []
        for fragment in example_partitioning:
            lpms = evaluate_fragment(fragment, example_query_graph).local_partial_matches
            features.extend(compute_lec_features(lpms))
        outcome = LECFeaturePruner(example_query_graph).prune(features)
        assert outcome.total_features == 7
        assert outcome.pruned_count == 1
        assert outcome.join_attempts > 0
        assert outcome.complete_combinations >= 1

    def test_duplicate_features_are_counted_once(self, example_query_graph):
        full_sign = (1 << example_query_graph.num_vertices) - 1
        feature = lec_feature(0, [(0, Triple(EX.term("a"), EX.term("p"), EX.term("b")))], full_sign)
        outcome = LECFeaturePruner(example_query_graph).prune([feature, feature])
        assert outcome.total_features == 1


class TestPruningSoundness:
    """Pruning must never remove a local partial match needed by an answer."""

    @pytest.mark.parametrize("query_name", ["LQ1", "LQ6", "LQ7"])
    def test_pruned_lpms_do_not_change_answers(self, lubm_graph, query_name):
        from repro.core.assembly import LECAssembler

        query = lubm.queries()[query_name]
        query_graph = QueryGraph(query.bgp)
        partitioned = HashPartitioner(4).partition(lubm_graph)

        classes_by_site = {}
        for fragment in partitioned:
            lpms = evaluate_fragment(fragment, query_graph).local_partial_matches
            classes_by_site[fragment.fragment_id] = compute_lec_features(lpms)

        features_by_site = {site: list(classes) for site, classes in classes_by_site.items()}
        _, surviving = prune_features(query_graph, features_by_site)

        all_lpms = [
            lpm
            for classes in classes_by_site.values()
            for members in classes.values()
            for lpm in members
        ]
        surviving_lpms = [
            lpm
            for site, classes in classes_by_site.items()
            for position in surviving[site]
            for lpm in list(classes.values())[position]
        ]
        assembler = LECAssembler(query_graph)
        full = {m.assignment for m in assembler.assemble(all_lpms).matches}
        pruned = {m.assignment for m in assembler.assemble(surviving_lpms).matches}
        assert full == pruned

    def test_per_site_survivors_are_subsets(self, example_partitioning, example_query_graph):
        features_by_site = {}
        for fragment in example_partitioning:
            lpms = evaluate_fragment(fragment, example_query_graph).local_partial_matches
            features_by_site[fragment.fragment_id] = list(compute_lec_features(lpms))
        outcome, surviving = prune_features(example_query_graph, features_by_site)
        for site, features in features_by_site.items():
            positions = surviving[site]
            assert positions == sorted(set(positions))
            assert all(0 <= position < len(features) for position in positions)
            assert [features[p] for p in positions] == [f for f in features if outcome.survives(f)]
        assert sum(len(s) for s in surviving.values()) == len(outcome.surviving)
