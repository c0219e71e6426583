"""Unit tests for the LocalPartialMatch value object and Definition 5 checker."""

import pickle

import pytest

from reference_partial_eval import build_lpm

from repro.core import check_local_partial_match
from repro.core.partial_match import LPMList
from repro.partition import build_partitioned_graph
from repro.rdf import Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store import TermDictionary

EX = Namespace("http://example.org/")
A, B, C, D = EX.term("a"), EX.term("b"), EX.term("c"), EX.term("d")
P, Q = EX.term("p"), EX.term("q")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture()
def setting():
    """a --p--> b --q--> c with {a,b} in F0 and {c} in F1; query ?x p ?y . ?y q ?z."""
    graph = RDFGraph([Triple(A, P, B), Triple(B, Q, C)])
    partitioned = build_partitioned_graph(graph, {A: 0, B: 0, C: 1}, num_fragments=2)
    query = QueryGraph(BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)]))
    return graph, partitioned, query


def cluster_dictionary(partitioned):
    """One dictionary over the whole graph, as a cluster of ``partitioned`` has."""
    return TermDictionary(term for triple in partitioned.graph for term in triple.as_tuple())


def lpm_f0(partitioned, query):
    """The full LPM of fragment 0: {x→a, y→b, z→c} (z extended)."""
    fragment = partitioned.fragment(0)
    return build_lpm(
        fragment_id=0,
        mapping={X: A, Y: B, Z: C},
        edge_mapping={0: Triple(A, P, B), 1: Triple(B, Q, C)},
        crossing_edge_indexes={1},
        query=query,
        fragment=fragment,
        dictionary=cluster_dictionary(partitioned),
    )


def lpm_f1(partitioned, query):
    """The LPM of fragment 1: {y→b, z→c} (y extended)."""
    fragment = partitioned.fragment(1)
    return build_lpm(
        fragment_id=1,
        mapping={Y: B, Z: C},
        edge_mapping={1: Triple(B, Q, C)},
        crossing_edge_indexes={1},
        query=query,
        fragment=fragment,
        dictionary=cluster_dictionary(partitioned),
    )


class TestConstruction:
    def test_internal_mask_marks_internal_vertices(self, setting):
        _, partitioned, query = setting
        lpm = lpm_f0(partitioned, query)
        assert lpm.internal_vertex_indexes() == {query.vertex_index(X), query.vertex_index(Y)}

    def test_fragment_id(self, setting):
        _, partitioned, query = setting
        assert lpm_f0(partitioned, query).fragment_id == 0

    def test_mapping_and_value_of(self, setting):
        _, partitioned, query = setting
        lpm = lpm_f0(partitioned, query)
        assert lpm.mapping()[Z] == C
        assert lpm.value_of(X) == A
        assert lpm.value_of(Variable("missing")) is None

    def test_serialization_vector(self, setting):
        _, partitioned, query = setting
        lpm = lpm_f1(partitioned, query)
        assert lpm.serialization(query) == (None, B.n3(), C.n3())

    def test_num_matched(self, setting):
        _, partitioned, query = setting
        assert lpm_f0(partitioned, query).num_matched == 3
        assert lpm_f1(partitioned, query).num_matched == 2

    def test_shipment_size_positive_and_monotone(self, setting):
        _, partitioned, query = setting
        larger, smaller = LPMList([lpm_f0(partitioned, query)]), LPMList([lpm_f1(partitioned, query)])
        assert larger.shipment_size() > smaller.shipment_size() > LPMList().shipment_size() == 4

    def test_a_shared_key_is_charged_once_per_message(self, setting):
        _, partitioned, query = setting
        left, right = lpm_f0(partitioned, query), lpm_f1(partitioned, query)
        apart = LPMList([left]).shipment_size() + LPMList([right]).shipment_size() - 4
        shared = {key for _, key in left.items} & {key for _, key in right.items}
        assert shared
        text = sum(len(left.dictionary.n3_of(key).encode()) for key in shared)
        assert LPMList([left, right]).shipment_size() == apart - text
        # Keys the receiver already holds are referred to, not sent again.
        referred = LPMList([left, right], known_keys=shared).shipment_size()
        assert referred == LPMList([left, right]).shipment_size() - text

    def test_pickles_as_the_table_form(self, setting):
        _, partitioned, query = setting
        lpms = LPMList([lpm_f0(partitioned, query), lpm_f1(partitioned, query)])
        loaded = pickle.loads(pickle.dumps(lpms))
        assert type(loaded) is LPMList and loaded == lpms
        for before, after in zip(lpms, loaded):
            assert (after.terms, after.crossing, after.fragments) == (before.terms, before.crossing, before.fragments)


class TestJoin:
    def test_joinable_pair(self, setting):
        _, partitioned, query = setting
        assert lpm_f0(partitioned, query).can_join(lpm_f1(partitioned, query))

    def test_join_is_symmetric(self, setting):
        _, partitioned, query = setting
        left, right = lpm_f0(partitioned, query), lpm_f1(partitioned, query)
        assert left.can_join(right) == right.can_join(left)

    def test_join_merges_masks_and_assignments(self, setting):
        _, partitioned, query = setting
        joined = lpm_f0(partitioned, query).join(lpm_f1(partitioned, query))
        assert joined.is_complete(query)
        assert joined.fragments == frozenset({0, 1})
        assert joined.mapping() == {X: A, Y: B, Z: C}

    def test_cannot_join_with_overlapping_internal_mask(self, setting):
        _, partitioned, query = setting
        lpm = lpm_f0(partitioned, query)
        assert not lpm.can_join(lpm)

    def test_cannot_join_without_common_crossing_edge(self, setting):
        _, partitioned, query = setting
        fragment1 = partitioned.fragment(1)
        other = build_lpm(
            fragment_id=1,
            mapping={Z: C},
            edge_mapping={},
            crossing_edge_indexes=set(),
            query=query,
            fragment=fragment1,
        )
        assert not lpm_f0(partitioned, query).can_join(other)

    def test_cannot_join_with_conflicting_vertex_assignment(self, setting):
        graph, partitioned, query = setting
        fragment1 = partitioned.fragment(1)
        conflicting = build_lpm(
            fragment_id=1,
            mapping={Y: B, Z: C, X: C},
            edge_mapping={1: Triple(B, Q, C)},
            crossing_edge_indexes={1},
            query=query,
            fragment=fragment1,
        )
        base = lpm_f0(partitioned, query)
        assert not base.can_join(conflicting)

    def test_to_binding_keeps_only_variables(self, setting):
        _, partitioned, query = setting
        binding = lpm_f0(partitioned, query).to_binding()
        assert set(binding.variables) == {X, Y, Z}


class TestDefinition5Checker:
    def test_valid_lpm_has_no_violations(self, setting):
        _, partitioned, query = setting
        assert check_local_partial_match(lpm_f0(partitioned, query), query, partitioned.fragment(0)) == []
        assert check_local_partial_match(lpm_f1(partitioned, query), query, partitioned.fragment(1)) == []

    def test_missing_crossing_edge_is_reported(self, setting):
        _, partitioned, query = setting
        fragment = partitioned.fragment(0)
        lpm = build_lpm(0, {X: A, Y: B}, {0: Triple(A, P, B)}, set(), query, fragment)
        violations = check_local_partial_match(lpm, query, fragment)
        assert any("crossing edge" in violation for violation in violations)

    def test_unexpanded_internal_vertex_is_reported(self, setting):
        _, partitioned, query = setting
        fragment = partitioned.fragment(0)
        # y -> b is internal but its q-edge to ?z is not matched.
        lpm = build_lpm(0, {X: A, Y: B}, {0: Triple(A, P, B)}, {0}, query, fragment)
        violations = check_local_partial_match(lpm, query, fragment)
        assert any("misses query edge" in violation for violation in violations)

    def test_constant_mismatch_is_reported(self):
        graph = RDFGraph([Triple(A, P, B), Triple(B, Q, C)])
        partitioned = build_partitioned_graph(graph, {A: 0, B: 0, C: 1}, num_fragments=2)
        query = QueryGraph(BasicGraphPattern([TriplePattern(D, P, Y), TriplePattern(Y, Q, Z)]))
        fragment = partitioned.fragment(0)
        lpm = build_lpm(0, {D: A, Y: B, Z: C}, {0: Triple(A, P, B), 1: Triple(B, Q, C)}, {1}, query, fragment)
        violations = check_local_partial_match(lpm, query, fragment)
        assert any("constant" in violation for violation in violations)

    def test_disconnected_matched_part_is_reported(self):
        # Graph: a-p->b (F0 internal), c-q->d crossing; query: ?x p ?y . ?z q ?w (disconnected).
        graph = RDFGraph([Triple(A, P, B), Triple(C, Q, D)])
        partitioned = build_partitioned_graph(graph, {A: 0, B: 0, C: 0, D: 1}, num_fragments=2)
        w = Variable("w")
        query = QueryGraph(BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Z, Q, w)]))
        fragment = partitioned.fragment(0)
        lpm = build_lpm(
            0, {X: A, Y: B, Z: C, w: D}, {0: Triple(A, P, B), 1: Triple(C, Q, D)}, {1}, query, fragment
        )
        violations = check_local_partial_match(lpm, query, fragment)
        assert any("not connected" in violation for violation in violations)
