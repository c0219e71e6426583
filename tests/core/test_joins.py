"""Unit tests for the compiled, hash-indexed coordinator join (``repro.core.joins``)."""

import pytest

from reference_joins import LECFeaturePruner as ReferencePruner
from reference_joins import build_join_graph, compiled_features_joinable, group_features_by_sign, lec_feature
from reference_joins import features_joinable as reference_joinable

from repro.core import LECFeaturePruner, lec_feature_of
from repro.core.joins import NULL, JoinCompiler, SignGroups, conflicts, seed
from repro.core.partial_eval import evaluate_fragment
from repro.datasets import lubm
from repro.partition import HashPartitioner
from repro.rdf import Namespace, Triple
from repro.sparql import QueryGraph

EX = Namespace("http://example.org/")


@pytest.fixture()
def example_features(example_partitioning, example_query_graph):
    features = []
    for fragment in example_partitioning:
        lpms = evaluate_fragment(fragment, example_query_graph).local_partial_matches
        features.extend(dict.fromkeys(lec_feature_of(lpm) for lpm in lpms))
    return features


def lubm_features(lubm_graph, query_name):
    """The distinct LEC features of one LUBM query over a 4-way hash partitioning."""
    query_graph = QueryGraph(lubm.queries()[query_name].bgp)
    features = []
    for fragment in HashPartitioner(4).partition(lubm_graph):
        lpms = evaluate_fragment(fragment, query_graph).local_partial_matches
        features.extend(dict.fromkeys(lec_feature_of(lpm) for lpm in lpms))
    return query_graph, features


class TestCompiledForm:
    def test_equal_pairs_and_vertices_get_equal_ids(self, example_features, example_query_graph):
        compiler = JoinCompiler(example_query_graph)
        operands = [compiler.feature(feature) for feature in example_features]
        for feature, operand in zip(example_features, operands):
            assert operand.sign == feature.lec_sign
            assert operand.fragment_id == feature.fragment_id
            assert len(operand.pairs) == len(feature.crossing_map)
            edge_items = [item for item in operand.items if item[0] < example_query_graph.num_edges]
            assert {slot for slot, _ in edge_items} == feature.query_edges()
            assert {held for _, held in edge_items} == {pair[2] for pair in feature.crossing}
        for left, a in zip(example_features, operands):
            for right, b in zip(example_features, operands):
                shared = len(left.crossing_map & right.crossing_map)
                assert len(set(a.pairs) & set(b.pairs)) == shared

    def test_lpm_form_covers_every_matched_edge_and_vertex(self, example_partitioning, example_query_graph):
        compiler = JoinCompiler(example_query_graph)
        for fragment in example_partitioning:
            for lpm in evaluate_fragment(fragment, example_query_graph).local_partial_matches:
                operand = compiler.lpm(lpm)
                assert operand.sign == lpm.internal_mask
                assert len(operand.pairs) == len(lpm.crossing_assignment)
                assert len(operand.items) == len(lpm.edge_assignment) + len(lpm.assignment)
                edges = {(slot, held) for slot, held in operand.items if slot < example_query_graph.num_edges}
                assert {(pair[0], pair[2]) for pair in lpm.crossing} <= edges

    def test_seed_fills_dense_slots(self, example_features, example_query_graph):
        compiler = JoinCompiler(example_query_graph)
        operand = compiler.feature(example_features[0])
        sign, pairs, slots, members = seed(operand, 7, example_query_graph)
        assert (sign, pairs, members) == (operand.sign, operand.pairs, (7,))
        assert len(slots) == example_query_graph.num_edges + example_query_graph.num_vertices
        assert {(i, held) for i, held in enumerate(slots) if held != NULL} == set(operand.items)
        assert not conflicts(slots, operand)
        other = compiler.feature(example_features[1])
        clash = list(slots)
        clash[other.items[0][0]] = other.items[0][1] + "-other"
        assert conflicts(clash, other)

    def test_self_conflicting_feature_has_no_join_keys(self, example_query_graph):
        edge = example_query_graph.edge_at(0)
        shared = next(
            other for other in example_query_graph.edges
            if other.index != 0 and {other.subject, other.object} & {edge.subject, edge.object}
        )  # fmt: skip
        # Both edges touch one query vertex but disagree on its data vertex.
        ends = {edge.subject: EX.term("a"), edge.object: EX.term("b")}
        clash = {shared.subject: EX.term("c"), shared.object: EX.term("d")}
        feature = lec_feature(
            0,
            [
                (0, Triple(ends[edge.subject], EX.term("p"), ends[edge.object])),
                (shared.index, Triple(clash[shared.subject], EX.term("p"), clash[shared.object])),
            ],
            0b1,
        )
        operand = JoinCompiler(example_query_graph).feature(feature)
        assert operand.pairs == ()
        assert len(operand.items) > 2


class TestIndexAndJoinGraph:
    def test_index_lists_members_in_arrival_order(self, example_features, example_query_graph):
        compiler = JoinCompiler(example_query_graph)
        operands = [compiler.feature(feature) for feature in example_features]
        groups = SignGroups(example_query_graph, operands)
        assert groups.index_size == sum(len(operand.pairs) for operand in operands)
        assert {sign: len(members) for sign, members in groups.members.items()} == {
            sign: len(members) for sign, members in group_features_by_sign(example_features).items()
        }
        for sign, postings in groups.index.items():
            for pair_id, numbers in postings.items():
                assert numbers == sorted(numbers)
                assert all(operands[n].sign == sign and pair_id in operands[n].pairs for n in numbers)

    @pytest.mark.parametrize("query_name", ["LQ1", "LQ6", "LQ7"])
    def test_join_graph_equals_the_nested_loop_graph(self, lubm_graph, query_name):
        query_graph, features = lubm_features(lubm_graph, query_name)
        compiler = JoinCompiler(query_graph)
        graph = SignGroups(query_graph, [compiler.feature(f) for f in features]).join_graph()
        assert graph == build_join_graph(group_features_by_sign(features), query_graph)
        for sign, neighbours in graph.items():
            assert all(sign in graph[neighbour] for neighbour in neighbours)

    def test_pairwise_joinability_equals_the_object_level_test(self, example_features, example_query_graph):
        for left in example_features:
            for right in example_features:
                assert compiled_features_joinable(left, right, example_query_graph) == reference_joinable(
                    left, right, example_query_graph
                )


class TestJoinAttempts:
    @pytest.mark.parametrize("query_name", ["LQ1", "LQ7"])
    def test_counter_is_index_hits_not_the_cross_product(self, lubm_graph, query_name):
        """``join_attempts`` counts the pairs the index yielded: far fewer than
        the nested loop's ``partials x group`` pairs, never fewer than the
        joins that succeeded, with the same survivors and combinations."""
        query_graph, features = lubm_features(lubm_graph, query_name)
        indexed = LECFeaturePruner(query_graph).prune(features)
        reference = ReferencePruner(query_graph).prune(features)
        assert indexed.surviving == reference.surviving
        assert indexed.complete_combinations == reference.complete_combinations
        assert indexed.groups == reference.groups
        assert 0 < indexed.join_attempts * 5 < reference.join_attempts
        assert indexed.index_size > 0
