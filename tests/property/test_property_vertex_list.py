"""A patch edits the built vertex list in place, to what a cold build gives.

``EncodedGraph.sorted_vertex_ids`` is built on first use.  Once built, each
``apply_ops`` window inserts a changed triple's endpoint at its bisect
position, or deletes it there, as the patched columns still hold a row for it
or not; a list never built stays unbuilt.  Random windows — additions,
removals, a triple removed and re-added, a whole label emptied, a self-loop,
new terms — are applied to a graph and patched into its warm encoding; after
each one the list must be the same object, equal to a cold build's over the
same dictionary and to the sorted endpoints of the graph's triples, and
``is_vertex`` must agree with it for every id.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import random_graph
from repro.rdf import Literal, Namespace, Triple
from repro.store.encoding import EncodedGraph

EX = Namespace("http://example.org/")
NEW_VERTEX, NEW_PREDICATE = EX.term("new"), EX.term("newPredicate")

#: One op: add or remove triple number ``n`` of the universe, remove every
#: triple touching vertex number ``n`` ("isolate"), or remove then re-add triple ``n``.
ops = st.tuples(st.sampled_from(["+", "-", "isolate", "-+"]), st.integers(0, 10_000))
#: Up to five update windows of up to eight ops each.
window_lists = st.lists(st.lists(ops, min_size=1, max_size=8), min_size=1, max_size=5)


def universe(graph):
    """Present triples, absent ones, self-loops, a literal, and triples over new terms."""
    vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
    predicates = sorted(graph.predicates, key=lambda term: term.n3())
    triples = sorted(graph, key=lambda triple: triple.n3())
    triples += [Triple(vertices[0], predicates[0], vertex) for vertex in vertices[-3:]]
    triples += [Triple(vertices[2], predicates[0], vertices[2]), Triple(vertices[1], predicates[-1], Literal("x"))]
    triples += [Triple(NEW_VERTEX, NEW_PREDICATE, NEW_VERTEX), Triple(NEW_VERTEX, predicates[0], vertices[3])]
    return triples, vertices + [NEW_VERTEX]


def apply_window(graph, encoded, window, triples, vertices):
    """Apply one window to ``graph`` and patch ``encoded`` with the effective ops."""
    effective = []

    def do(op, triple):
        if (graph.add if op == "+" else graph.discard)(triple):
            effective.append((op, triple))

    for op, number in window:
        if op == "isolate":
            vertex = vertices[number % len(vertices)]
            for triple in sorted(graph, key=lambda triple: triple.n3()):
                if vertex in (triple.subject, triple.object):
                    do("-", triple)
            continue
        triple = triples[number % len(triples)]
        for step in ("-", "+") if op == "-+" else (op,):
            do(step, triple)
    encoded.apply_ops([(op, encoded.dictionary.ensure_triple(triple)) for op, triple in effective])


def assert_vertex_list_is_a_cold_build(encoded, graph, built):
    dictionary = encoded.dictionary
    assert encoded.sorted_vertex_ids is built, "a patch rebuilt or dropped the vertex list"
    expected = sorted({dictionary.id_of(term) for triple in graph for term in (triple.subject, triple.object)})
    assert built == expected
    assert built == EncodedGraph(graph, dictionary).sorted_vertex_ids
    assert [i for i in range(len(dictionary) + 1) if encoded.is_vertex(i)] == expected


def check(seed, windows):
    graph = random_graph(seed, num_vertices=8, num_edges=16, num_predicates=3)
    triples, vertices = universe(graph)
    encoded = EncodedGraph(graph)
    built = encoded.sorted_vertex_ids
    for window in windows:
        apply_window(graph, encoded, window, triples, vertices)
        assert_vertex_list_is_a_cold_build(encoded, graph, built)


class TestPatchedVertexList:
    @given(st.integers(0, 5_000), window_lists)
    @settings(max_examples=30, deadline=None)
    def test_patched_list_equals_a_cold_build(self, seed, windows):
        check(seed, windows)

    def test_a_vertex_disappears_and_reappears(self):
        # Isolate vertex 0 (every triple touching it goes), then bring one
        # triple of it back; a new vertex comes only as a self-loop and goes.
        windows = [
            [("isolate", 0)],
            [("+", 0)],
            [("+", -2)],
            [("-", -2)],
            [("-+", -2)],
            [("isolate", -1), ("isolate", 1)],
        ]
        for seed in range(5):
            check(seed, windows)

    def test_an_unbuilt_list_stays_unbuilt(self):
        graph = random_graph(7, num_vertices=8, num_edges=16, num_predicates=3)
        triples, vertices = universe(graph)
        encoded = EncodedGraph(graph)
        apply_window(graph, encoded, [("-", 0), ("+", -2), ("isolate", 1)], triples, vertices)
        assert encoded._sorted_vertex_ids is None
        assert encoded.sorted_vertex_ids == EncodedGraph(graph, encoded.dictionary).sorted_vertex_ids
