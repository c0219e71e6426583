"""Unit tests for the per-fragment id index of partial evaluation."""

from repro.partition import build_partitioned_graph
from repro.partition.delta import DeltaEffect, apply_delta_effects
from repro.rdf import Namespace, RDFGraph, Triple
from repro.store.encoding import EncodedGraph
from repro.store.fragment_index import FragmentIndex

EX = Namespace("http://example.org/")
A, B, C, D = (EX.term(name) for name in "abcd")
P, Q = EX.term("p"), EX.term("q")


def setting():
    """a, b | c, d with three crossing edges over two labels."""
    graph = RDFGraph([Triple(A, P, B), Triple(B, P, C), Triple(A, Q, D), Triple(D, P, B), Triple(C, Q, D)])
    return build_partitioned_graph(graph, {A: 0, B: 0, C: 1, D: 1}, num_fragments=2).fragment(0)


def decoded(index):
    term_of = index.encoded.dictionary.term_of
    return {
        term_of(predicate): [tuple(term_of(term_id) for term_id in ids) for ids in triples]
        for predicate, triples in index.crossing_by_predicate.items()
    }


def state(index):
    return (index.internal, index.extended, index.crossing, index.crossing_by_predicate)


def cold_state(index, fragment):
    """:func:`state` of a fresh encoding and index of ``fragment`` over ``index``'s dictionary."""
    cold = FragmentIndex(fragment, EncodedGraph(fragment.all_edges, index.encoded.dictionary))
    assert list(cold.encoded.iter_triple_ids()) == list(index.encoded.iter_triple_ids())
    return state(cold)


def apply(index, fragment, effects):
    """Patch encoding, fragment and index for one window, in the order ``Site.apply`` uses."""
    ops = [("+" if effect.op == "add" else "-", effect.triple) for effect in effects]
    encoded = index.encoded
    encoded.apply_ops(ops)
    id_of = encoded.dictionary.id_of
    apply_delta_effects(fragment, effects, lambda vertex: encoded.degree(id_of(vertex)) > 0)
    index.patch(fragment, ops)


def test_holds_definition1_as_ids():
    fragment = setting()
    index = FragmentIndex.build(fragment)
    dictionary = index.encoded.dictionary
    assert dictionary.decode_ids(index.internal) == {A, B}
    assert dictionary.decode_ids(index.extended) == {C, D}
    assert decoded(index) == {P: [(B, P, C), (D, P, B)], Q: [(A, Q, D)]}
    for triples in index.crossing_by_predicate.values():
        assert list(triples) == sorted(triples)
    assert list(index.crossing) == sorted(ids for triples in index.crossing_by_predicate.values() for ids in triples)


def test_build_encodes_exactly_the_fragments_edges():
    fragment = setting()
    encoded = FragmentIndex.build(fragment).encoded
    reference = EncodedGraph(RDFGraph(fragment.internal_edges | fragment.crossing_edges))
    assert encoded.num_triples == fragment.num_edges == 4
    assert [encoded.dictionary.term_of(i) for i in range(len(encoded.dictionary))] == [
        reference.dictionary.term_of(i) for i in range(len(reference.dictionary))
    ]
    assert list(encoded.iter_triple_ids()) == list(reference.iter_triple_ids())


def test_an_added_crossing_edge_is_patched_in():
    fragment = setting()
    index = FragmentIndex.build(fragment)
    encoded = index.encoded
    apply(index, fragment, [DeltaEffect("add", 0, Triple(A, P, C), crossing=True, extended=C)])
    assert index.encoded is encoded
    assert decoded(index)[P] == [(A, P, C), (B, P, C), (D, P, B)]
    assert state(index) == cold_state(index, fragment)


def test_an_extended_vertex_that_loses_its_last_crossing_edge_leaves():
    fragment = setting()
    index = FragmentIndex.build(fragment)
    apply(index, fragment, [DeltaEffect("remove", 0, Triple(A, Q, D), crossing=True, extended=D)])
    assert D in fragment.extended_vertices, "d -p-> b still touches d"
    apply(index, fragment, [DeltaEffect("remove", 0, Triple(D, P, B), crossing=True, extended=D)])
    assert D not in fragment.extended_vertices
    assert index.encoded.dictionary.decode_ids(index.extended) == {C}
    assert Q not in decoded(index)
    assert state(index) == cold_state(index, fragment)


def test_a_window_that_adds_and_removes_settles_membership_once():
    fragment = setting()
    index = FragmentIndex.build(fragment)
    newcomer = EX.term("e")
    added = Triple(A, P, newcomer)
    apply(
        index,
        fragment,
        [
            DeltaEffect("add", 0, added, crossing=True, extended=newcomer),
            DeltaEffect("remove", 0, added, crossing=True, extended=newcomer),
        ],
    )
    assert newcomer not in fragment.extended_vertices
    assert added not in fragment.crossing_edges
    assert state(index) == cold_state(index, fragment)
    assert index.encoded.num_triples == 4
