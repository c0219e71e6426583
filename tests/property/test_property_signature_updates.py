"""Exact O(delta) maintenance of the signature index across graph updates.

``SignatureIndex`` follows the graph's mutation journal in place: an added
edge ORs its masks in, the endpoints of a removed edge get their bits
recomputed from the edges they still have.  After every journal window the
index must be indistinguishable from one built cold over a copy of the graph
— per-term signatures and the ``bits_table`` row by row — and must have got
there without a single full rebuild.  Random interleavings of adds and
removes are complemented by the windows most likely to break a repair: a
vertex losing its last edge, a triple removed and re-added (and added and
removed) inside one window, a hub vertex, brand-new terms — at the default
width and at a single 64-bit word.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import random_graph
from repro.rdf import Literal, Namespace, Triple
from repro.store import SignatureIndex
from repro.store.encoding import encoded_view

EX = Namespace("http://example.org/")
HUB = EX.term("hub")
NEW_VERTICES = [EX.term("new0"), EX.term("new1"), Literal("brand new")]
NEW_PREDICATE = EX.term("newPredicate")


class CountingIndex(SignatureIndex):
    """A signature index that counts its full rebuilds."""

    rebuilds = 0

    def _rebuild(self, encoded):
        self.rebuilds += 1
        super()._rebuild(encoded)


def hub_graph(seed):
    """A random graph plus a hub every vertex points at (and that points back at two)."""
    graph = random_graph(seed, num_vertices=9, num_edges=16, num_predicates=2)
    vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
    predicate = sorted({triple.predicate for triple in graph}, key=lambda term: term.n3())[0]
    for vertex in vertices:
        graph.add(Triple(vertex, predicate, HUB))
    for vertex in vertices[:2]:
        graph.add(Triple(HUB, predicate, vertex))
    return graph


def universe(graph):
    """The triples a window may add or remove: present ones, absent ones, ones over new terms."""
    vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
    predicates = sorted({triple.predicate for triple in graph}, key=lambda term: term.n3())
    triples = sorted(graph, key=lambda triple: triple.n3())
    first, last = vertices[0], vertices[-1]
    triples += [Triple(first, predicate, last) for predicate in predicates]
    triples += [Triple(last, predicates[0], first), Triple(first, predicates[0], first)]
    triples += [Triple(first, NEW_PREDICATE, vertex) for vertex in NEW_VERTICES]
    triples += [Triple(NEW_VERTICES[0], predicates[0], HUB), Triple(NEW_VERTICES[0], NEW_PREDICATE, NEW_VERTICES[1])]
    return triples


def assert_equals_a_cold_build(index, graph, terms):
    encoded = encoded_view(graph)
    table = index.bits_table(encoded)
    fresh = SignatureIndex(graph.copy(), width=index.width)
    for term in terms:
        assert index.signature_of(term) == fresh.signature_of(term), term
    for term_id, bits in enumerate(table):
        assert bits == fresh.signature_of(encoded.dictionary.term_of(term_id)).bits


def check_windows(graph, windows, width=256):
    """Apply ``windows`` (lists of ``(op, triple)``) and compare after each one."""
    index = CountingIndex(graph, width=width)
    terms = set(graph.vertices) | {HUB, *NEW_VERTICES}
    assert_equals_a_cold_build(index, graph, terms)
    for window in windows:
        for op, triple in window:
            terms.update((triple.subject, triple.object))
            (graph.add if op == "+" else graph.discard)(triple)
        assert_equals_a_cold_build(index, graph, terms)
    assert index.rebuilds == 1, "a journal window was answered with a full rebuild"


window_lists = st.lists(
    st.lists(st.tuples(st.sampled_from("+-"), st.integers(0, 10_000)), min_size=1, max_size=8),
    min_size=1,
    max_size=5,
)


@given(st.integers(0, 5_000), window_lists, st.sampled_from([64, 256]))
@settings(max_examples=30, deadline=None)
def test_random_interleavings_equal_a_cold_build(seed, windows, width):
    graph = hub_graph(seed)
    triples = universe(graph)
    resolved = [[(op, triples[number % len(triples)]) for op, number in window] for window in windows]
    check_windows(graph, resolved, width=width)


def scenario_windows(graph):
    """The named windows, each over ``hub_graph(3)``."""
    triples = sorted(graph, key=lambda triple: triple.n3())
    vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
    leaf = min(vertices, key=lambda vertex: (graph.degree(vertex), vertex.n3()))
    leaf_edges = sorted(graph.triples(subject=leaf), key=Triple.n3) + sorted(graph.triples(object=leaf), key=Triple.n3)
    hub_edges = sorted(graph.triples(object=HUB), key=Triple.n3)
    predicate = triples[0].predicate
    newcomer = Triple(NEW_VERTICES[0], NEW_PREDICATE, NEW_VERTICES[2])
    return {
        "a vertex loses its last edge": [[("-", edge) for edge in leaf_edges]],
        "the vertex comes back": [[("-", edge) for edge in leaf_edges], [("+", leaf_edges[0])]],
        "removed and re-added in one window": [[("-", triples[0]), ("+", triples[0])]],
        "added and removed in one window": [[("+", newcomer), ("-", newcomer)]],
        "a hub loses edges one window at a time": [[("-", edge)] for edge in hub_edges[:4]],
        "a hub loses every edge": [[("-", edge) for edge in hub_edges + sorted(graph.triples(subject=HUB), key=Triple.n3)]],
        "brand-new terms": [[("+", newcomer)], [("+", Triple(NEW_VERTICES[1], predicate, HUB)), ("-", newcomer)]],
        "a self-loop comes and goes": [[("+", Triple(HUB, predicate, HUB))], [("-", Triple(HUB, predicate, HUB))]],
        "no-ops only": [[("+", triples[0]), ("-", newcomer)]],
    }


@pytest.mark.parametrize("name", list(scenario_windows(hub_graph(3))))
def test_named_windows_equal_a_cold_build(name):
    graph = hub_graph(3)
    check_windows(graph, scenario_windows(graph)[name])


@pytest.mark.parametrize("name", list(scenario_windows(hub_graph(3))))
def test_named_windows_equal_a_cold_build_at_word_width(name):
    """One 64-bit word: the most folding collisions a repair has to keep exact."""
    graph = hub_graph(3)
    check_windows(graph, scenario_windows(graph)[name], width=64)
