"""Unit tests for the per-fragment id index of partial evaluation."""

from repro.partition import build_partitioned_graph
from repro.rdf import Namespace, RDFGraph, Triple
from repro.store.encoding import EncodedGraph
from repro.store.fragment_index import FragmentIndex

EX = Namespace("http://example.org/")
A, B, C, D, E = (EX.term(name) for name in "abcde")
P, Q = EX.term("p"), EX.term("q")
#: a, b | c, d with three crossing edges over two labels; e joins fragment 1 when it comes.
EDGES = {Triple(A, P, B), Triple(B, P, C), Triple(A, Q, D), Triple(D, P, B), Triple(C, Q, D)}
HOMES = {A: 0, B: 0, C: 1, D: 1, E: 1}


def fragment_of(edges):
    """Fragment 0 of a validated partitioning of ``edges``: the truth a patched index must reach."""
    return build_partitioned_graph(RDFGraph(edges), HOMES, num_fragments=2).fragment(0)


def decoded(index):
    term_of = index.encoded.dictionary.term_of
    return {
        term_of(predicate): [tuple(term_of(term_id) for term_id in ids) for ids in triples]
        for predicate, triples in index.crossing_by_predicate.items()
    }


def state(index):
    return (index.internal, index.extended, index.crossing, index.crossing_by_predicate)


def home_ids(dictionary):
    return {dictionary.id_of(vertex): home for vertex, home in HOMES.items() if vertex in dictionary}


def apply(index, edges, ops):
    """Patch encoding and index for one window, in the order ``Site.apply`` uses, and
    follow it in ``edges``; then compare with a fresh index of the mutated fragment."""
    dictionary = index.encoded.dictionary
    id_ops = [(op, dictionary.ensure_triple(triple)) for op, triple in ops]
    index.encoded.apply_ops(id_ops)
    index.patch(id_ops, home_ids(dictionary))
    for op, triple in ops:
        (edges.add if op == "+" else edges.discard)(triple)
    expected = fragment_of(edges)
    assert index.decoded() == expected
    cold = FragmentIndex(0, EncodedGraph(expected.all_edges, dictionary), home_ids(dictionary))
    assert list(cold.encoded.iter_triple_ids()) == list(index.encoded.iter_triple_ids())
    assert state(index) == state(cold)


def test_holds_definition1_as_ids():
    fragment = fragment_of(EDGES)
    index = FragmentIndex.build(fragment)
    dictionary = index.encoded.dictionary
    assert index.fragment_id == 0 and index.name == "F0"
    assert dictionary.decode_ids(index.internal) == {A, B}
    assert dictionary.decode_ids(index.extended) == {C, D}
    assert decoded(index) == {P: [(B, P, C), (D, P, B)], Q: [(A, Q, D)]}
    for triples in index.crossing_by_predicate.values():
        assert list(triples) == sorted(triples)
    assert list(index.crossing) == sorted(ids for triples in index.crossing_by_predicate.values() for ids in triples)
    assert index.decoded() == fragment


def test_build_encodes_exactly_the_fragments_edges():
    fragment = fragment_of(EDGES)
    encoded = FragmentIndex.build(fragment).encoded
    reference = EncodedGraph(RDFGraph(fragment.internal_edges | fragment.crossing_edges))
    assert encoded.num_triples == fragment.num_edges == 4
    assert [encoded.dictionary.term_of(i) for i in range(len(encoded.dictionary))] == [
        reference.dictionary.term_of(i) for i in range(len(reference.dictionary))
    ]
    assert list(encoded.iter_triple_ids()) == list(reference.iter_triple_ids())


def test_an_added_crossing_edge_is_patched_in():
    edges = set(EDGES)
    index = FragmentIndex.build(fragment_of(edges))
    encoded = index.encoded
    apply(index, edges, [("+", Triple(A, P, C))])
    assert index.encoded is encoded
    assert decoded(index)[P] == [(A, P, C), (B, P, C), (D, P, B)]


def test_an_extended_vertex_that_loses_its_last_crossing_edge_leaves():
    edges = set(EDGES)
    index = FragmentIndex.build(fragment_of(edges))
    apply(index, edges, [("-", Triple(A, Q, D))])
    assert D in index.decoded().extended_vertices, "d -p-> b still touches d"
    apply(index, edges, [("-", Triple(D, P, B))])
    assert index.encoded.dictionary.decode_ids(index.extended) == {C}
    assert Q not in decoded(index)


def test_a_window_that_adds_and_removes_settles_membership_once():
    edges = set(EDGES)
    index = FragmentIndex.build(fragment_of(edges))
    added = Triple(A, P, E)
    apply(index, edges, [("+", added), ("-", added)])
    assert E not in index.decoded().extended_vertices
    assert index.encoded.num_triples == 4
