"""Unit tests for the coordinator join (``repro.core.joins``): operands are their crossing pairs."""

from functools import partial

import pytest

from reference_joins import LECFeaturePruner as ReferencePruner
from reference_joins import crossing_features_joinable, edge_ends, group_features_by_sign, lec_feature
from reference_joins import features_joinable as reference_joinable

from repro.core import LECFeaturePruner, lec_feature_of, prune_features
from repro.core.joins import SignGroups, fill
from repro.core.partial_eval import evaluate_fragment
from repro.distributed import build_cluster
from repro.datasets import lubm
from repro.partition import HashPartitioner
from repro.rdf import Namespace, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store.encoding import TermDictionary

EX = Namespace("http://example.org/")


@pytest.fixture()
def example_features(example_cluster, example_query_graph):
    features = []
    for site in example_cluster:
        lpms = evaluate_fragment(site.fragment, example_query_graph, graph=site.graph).local_partial_matches
        features.extend(dict.fromkeys(lec_feature_of(lpm) for lpm in lpms))
    return features


def lubm_features(lubm_graph, query_name):
    """The distinct LEC features of one LUBM query over a 4-way hash partitioning."""
    query_graph = QueryGraph(lubm.queries()[query_name].bgp)
    features = []
    for site in build_cluster(HashPartitioner(4).partition(lubm_graph)):
        lpms = evaluate_fragment(site.fragment, query_graph, graph=site.graph).local_partial_matches
        features.extend(dict.fromkeys(lec_feature_of(lpm) for lpm in lpms))
    return query_graph, features


def hand_feature(query, dictionary, fragment_id, sign_vertices, crossing):
    """A feature of ``fragment_id`` covering ``sign_vertices``, its pairs given as ``(index, "s p o")``."""
    sign = sum(1 << query.vertex_index(vertex) for vertex in sign_vertices)
    triples = [(index, Triple(*(EX.term(name) for name in spo.split()))) for index, spo in crossing]
    return lec_feature(fragment_id, triples, sign, dictionary)


def empty_slots(query):
    return [None] * (query.num_edges + query.num_vertices)


def operands(features):
    return [(feature.lec_sign, feature.crossing) for feature in features]


class TestCrossingPairs:
    def test_equal_pairs_and_vertices_get_equal_ids(self, example_features, example_query_graph):
        ends = edge_ends(example_query_graph)
        for feature in example_features:
            slots = fill(empty_slots(example_query_graph), feature.crossing, ends)
            term_of = feature.dictionary.term_of
            for index, triple in feature.crossing_map:
                subject_slot, object_slot, _, _ = ends[index]
                assert term_of(slots[index]) == triple.predicate
                assert (term_of(slots[subject_slot]), term_of(slots[object_slot])) == (triple.subject, triple.object)
            edge_slots = {slot for slot, held in enumerate(slots) if held is not None and slot < len(ends)}
            assert edge_slots == feature.query_edges()
        for left in example_features:
            for right in example_features:
                shared = len(left.crossing_map & right.crossing_map)
                assert len(set(left.crossing) & set(right.crossing)) == shared

    def test_an_lpms_pairs_fill_a_part_of_its_items(self, example_cluster, example_query_graph):
        ends = edge_ends(example_query_graph)
        for site in example_cluster:
            for lpm in evaluate_fragment(site.fragment, example_query_graph, graph=site.graph).local_partial_matches:
                assert len(lpm.crossing) == len(lpm.crossing_assignment)
                slots = fill(empty_slots(example_query_graph), lpm.crossing, ends)
                filled = {(slot, held) for slot, held in enumerate(slots) if held is not None}
                assert filled <= set(lpm.items)
                assert {(pair[0], pair[2]) for pair in lpm.crossing} <= filled

    def test_fill_fills_dense_slots(self, example_features, example_query_graph):
        ends = edge_ends(example_query_graph)
        empty = empty_slots(example_query_graph)
        pairs = example_features[0].crossing
        slots = fill(empty, pairs, ends)
        assert empty == empty_slots(example_query_graph)  # filled in a copy
        assert len(slots) == example_query_graph.num_edges + example_query_graph.num_vertices
        implied = set()
        for index, subject, predicate, obj in pairs:
            implied |= {(index, predicate), (ends[index][0], subject), (ends[index][1], obj)}
        assert {(i, held) for i, held in enumerate(slots) if held is not None} == implied
        assert fill(slots, pairs, ends) == slots
        index, subject, predicate, obj = example_features[1].crossing[0]
        clash = list(slots)
        clash[ends[index][1]] = obj + 1_000_000  # an id no term has
        assert fill(clash, [(index, subject, predicate, obj)], ends) is None


class TestSelfConflictingFeatures:
    """A feature whose own pairs map a query edge or vertex twice never joins (Definition 9).

    Built by hand: a feature summarises one LPM, which maps each slot once,
    so the sites never send one.  The join refuses it as a seed or as a
    partner; which role it meets depends on the root, so each case runs
    both ways.
    """

    X, Y, Z = Variable("x"), Variable("y"), Variable("z")

    @pytest.mark.parametrize("as_seed", [False, True])
    def test_two_pairs_mapping_one_vertex_twice(self, as_seed):
        X, Y, Z = self.X, self.Y, self.Z
        query = QueryGraph(BasicGraphPattern([TriplePattern(X, EX.term("p"), Y), TriplePattern(Y, EX.term("q"), Z)]))
        feature = partial(hand_feature, query, TermDictionary([]))
        x = feature(0, [X], [(0, "a p b")])
        twin = feature(1, [Y], [(0, "a p b"), (1, "b q c")])
        clash = feature(1, [Y], [(0, "a p b"), (1, "b2 q c")])  # y -> b and b2
        z, z_of_clash = feature(2, [Z], [(1, "b q c")]), feature(2, [Z], [(1, "b2 q c")])
        by_site = {0: [x], 1: [twin, clash], 2: [z, z_of_clash]}
        if as_seed:
            # Two more features on ?x make ?y the root: the clashing feature is a seed.
            by_site[3] = [feature(3, [X], [(0, "a3 p b3")]), feature(3, [X], [(0, "a4 p b4")])]
        outcome, positions = prune_features(query, by_site)
        assert outcome.surviving == {x, twin, z}
        assert outcome.complete_combinations == 1
        assert (positions[1], positions[2]) == ([0], [0])

    @pytest.mark.parametrize("as_seed", [False, True])
    def test_a_loop_edge_mapped_to_a_non_loop_edge(self, as_seed):
        X, Y = self.X, self.Y
        query = QueryGraph(BasicGraphPattern([TriplePattern(X, EX.term("p"), X), TriplePattern(X, EX.term("q"), Y)]))
        feature = partial(hand_feature, query, TermDictionary([]))
        twin = feature(0, [X], [(0, "a p a"), (1, "a q c")])
        clash = feature(0, [X], [(0, "a p b"), (1, "a q c")])  # x -> a and b
        y = feature(1, [Y], [(1, "a q c")])
        by_site = {0: [twin, clash], 1: [y]}
        if as_seed:
            # A second feature on ?y ties the counts: ?x, the lower index, is the root.
            by_site[2] = [feature(2, [Y], [(1, "a q d")])]
        outcome, positions = prune_features(query, by_site)
        assert outcome.surviving == {twin, y}
        assert outcome.complete_combinations == 1
        assert positions[0] == [0]

    def test_a_full_sign_feature_stands_alone_all_the_same(self):
        X, Y = self.X, self.Y
        query = QueryGraph(BasicGraphPattern([TriplePattern(X, EX.term("p"), X), TriplePattern(X, EX.term("q"), Y)]))
        clash = hand_feature(query, TermDictionary([]), 0, [X, Y], [(0, "a p b"), (1, "a q c")])
        outcome, positions = prune_features(query, {0: [clash]})
        assert outcome.surviving == {clash}
        assert outcome.complete_combinations == 1
        assert positions == {0: [0]}


class TestIndex:
    def test_lists_hold_the_internal_endpoints_in_arrival_order(self, example_features, example_query_graph):
        ends = edge_ends(example_query_graph)
        groups = SignGroups(example_query_graph, operands(example_features))
        assert groups.groups == len(group_features_by_sign(example_features))
        expected = ({}, {})
        for number, feature in enumerate(example_features):
            for pair in feature.crossing:
                for end, vertex in enumerate(ends[pair[0]][2:]):
                    if feature.lec_sign >> vertex & 1:
                        expected[end].setdefault(pair, []).append(number)
        assert groups.by_end == expected
        assert groups.index_size == sum(len(numbers) for lists in expected for numbers in lists.values()) > 0
        # A crossing pair has one end internal to the fragment that holds it:
        # each operand is listed once per pair.
        assert groups.index_size == sum(len(feature.crossing) for feature in example_features)

    def test_pair_ends_are_the_query_vertices_of_the_pair(self, example_features, example_query_graph):
        ends = edge_ends(example_query_graph)
        base = example_query_graph.num_edges
        for feature in example_features:
            for pair in feature.crossing:
                edge = example_query_graph.edge_at(pair[0])
                subject = example_query_graph.vertex_index(edge.subject)
                obj = example_query_graph.vertex_index(edge.object)
                assert ends[pair[0]] == (base + subject, base + obj, subject, obj)

    @pytest.mark.parametrize("query_name", ["LQ1", "LQ6", "LQ7"])
    def test_each_combination_of_the_nested_loop_once(self, lubm_graph, query_name):
        query_graph, features = lubm_features(lubm_graph, query_name)
        emitted = []
        SignGroups(query_graph, operands(features)).join(
            lambda members: emitted.append(frozenset(features[n] for n in members))
        )
        oracle = ReferencePruner(query_graph)
        oracle.prune(features)
        assert len(set(emitted)) == len(emitted)
        assert set(emitted) == set(oracle.emitted)

    def test_pairwise_joinability_equals_the_object_level_test(self, example_features, example_query_graph):
        for left in example_features:
            for right in example_features:
                assert crossing_features_joinable(left, right, example_query_graph) == reference_joinable(
                    left, right, example_query_graph
                )


class TestJoinAttempts:
    @pytest.mark.parametrize("query_name", ["LQ1", "LQ7"])
    def test_counter_is_index_hits_not_the_cross_product(self, lubm_graph, query_name):
        """``join_attempts`` counts the operands the index listed: far fewer
        than the nested loop's ``partials x group`` pairs, with the same
        survivors and each of its combinations once."""
        query_graph, features = lubm_features(lubm_graph, query_name)
        indexed = LECFeaturePruner(query_graph).prune(features)
        oracle = ReferencePruner(query_graph)
        reference = oracle.prune(features)
        assert indexed.surviving == reference.surviving
        assert indexed.complete_combinations == len(set(oracle.emitted)) < reference.complete_combinations
        assert indexed.groups == reference.groups
        assert 0 < indexed.join_attempts * 5 < reference.join_attempts
        assert indexed.index_size > 0
