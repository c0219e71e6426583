"""Column patches equal a cold build, and every probe equals a scan of the graph.

``EncodedGraph.apply_ops`` gives each predicate whose triples a journal
window changes new out- and in-columns from one merge pass, and keeps every
other column.  Random windows — new terms and predicates, self-loops and
literals, rows and whole predicates that empty out, a triple removed and
added back — are applied to a graph whose encoded view is warm.  After each
window the view must be the same object (patched, not rebuilt), every
predicate's ``keys``, ``offsets`` and ``values`` must equal the CSR columns
built from scratch over the graph's triples with the view's own ids, and
every probe must answer what a brute-force scan of those triples answers.
"""

from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import random_graph
from repro.rdf import Literal, Namespace, Triple
from repro.store.encoding import PREDICATE_ABSENT, PREDICATE_ANY, encoded_view

EX = Namespace("http://example.org/")
NEW_VERTEX, NEW_PREDICATE = EX.term("new"), EX.term("newPredicate")

#: One op: add or remove triple number ``n`` of the universe, or remove every
#: triple of predicate number ``n`` ("clear"), or remove then re-add triple ``n``.
ops = st.tuples(st.sampled_from(["+", "-", "clear", "-+"]), st.integers(0, 10_000))
#: Up to four journal windows of up to eight ops each.
window_lists = st.lists(st.lists(ops, min_size=1, max_size=8), min_size=1, max_size=4)


def universe(graph):
    """Present triples, absent ones, loops, a literal, and triples over new terms."""
    vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
    predicates = sorted(graph.predicates, key=lambda term: term.n3())
    triples = sorted(graph, key=lambda triple: triple.n3())
    triples += [Triple(vertices[0], predicate, vertex) for predicate in predicates for vertex in vertices[-3:]]
    triples += [Triple(vertices[2], predicates[0], vertices[2]), Triple(vertices[1], predicates[-1], Literal("x"))]
    triples += [Triple(vertices[-1], NEW_PREDICATE, vertices[1]), Triple(NEW_VERTEX, predicates[0], vertices[3])]
    triples += [Triple(NEW_VERTEX, NEW_PREDICATE, NEW_VERTEX)]
    return triples, predicates + [NEW_PREDICATE]


def apply_window(graph, window, triples, predicates):
    for op, number in window:
        triple = triples[number % len(triples)]
        if op == "+":
            graph.add(triple)
        elif op == "-":
            graph.discard(triple)
        elif op == "-+":
            graph.discard(triple)
            graph.add(triple)
        else:
            for present in list(graph.triples(predicate=predicates[number % len(predicates)])):
                graph.discard(present)


def cold_column(pairs):
    """``(keys, offsets, values)`` of ascending ``(key, value)`` pairs, built by hand."""
    keys, offsets, values = [], [], []
    for key, value in sorted(pairs):
        if not keys or keys[-1] != key:
            keys.append(key)
            offsets.append(len(values))
        values.append(value)
    return keys, offsets + [len(values)], values


def assert_columns_are_a_cold_build(encoded, id_triples):
    """Every label's columns are the CSR form of exactly its triples; no label keeps an empty one."""
    labels = {p for _, p, _ in id_triples}
    assert set(encoded._out) == set(encoded._in) == labels
    for p in range(len(encoded.dictionary)):
        out_pairs = [(s, o) for s, q, o in id_triples if q == p]
        in_pairs = [(o, s) for s, o in out_pairs]
        for column, pairs in ((encoded.out_column(p), out_pairs), (encoded.in_column(p), in_pairs)):
            keys, offsets, values = cold_column(pairs) if pairs else ([], [0], [])
            assert (column.keys, column.offsets, column.values) == (keys, offsets, values)
            assert [column.row(key) for key in keys] == [values[a:b] for a, b in zip(offsets, offsets[1:])]


def assert_probes_match_a_scan(encoded, id_triples):
    ids = range(len(encoded.dictionary))
    vertices = sorted({s for s, _, _ in id_triples} | {o for _, _, o in id_triples})
    labels = sorted({p for _, p, _ in id_triples})
    absent = len(encoded.dictionary)
    assert encoded.num_triples == len(id_triples)
    assert list(encoded.iter_triple_ids()) == sorted(id_triples, key=lambda t: (t[1], t[0], t[2]))
    assert encoded.sorted_vertex_ids == vertices
    assert [i for i in chain(ids, [absent]) if encoded.is_vertex(i)] == vertices
    for code in chain(ids, [PREDICATE_ANY, PREDICATE_ABSENT]):
        if code == PREDICATE_ABSENT:
            edges = []
        else:
            edges = [(s, o) for s, p, o in id_triples if code in (p, PREDICATE_ANY)]
        assert encoded.subjects_of_predicate(code) == sorted({s for s, _ in edges})
        assert encoded.objects_of_predicate(code) == sorted({o for _, o in edges})
        for vertex in chain(vertices, [absent]):
            assert encoded.objects_from(vertex, code) == sorted({o for s, o in edges if s == vertex})
            assert encoded.subjects_to(code, vertex) == sorted({s for s, o in edges if o == vertex})
            assert encoded.has_out_edge(vertex, code) == any(s == vertex for s, _ in edges)
            assert encoded.has_in_edge(vertex, code) == any(o == vertex for _, o in edges)
            for other in chain(vertices, [absent]):
                assert encoded.has_edge(vertex, code, other) == ((vertex, other) in edges)
    for s in chain(vertices, [absent, None]):
        for p in chain(labels, [PREDICATE_ANY, PREDICATE_ABSENT]):
            for o in chain(vertices, [absent, None]):
                if s is None and o is None:
                    continue
                expected = sorted(
                    (ts, tp, to)
                    for ts, tp, to in id_triples
                    if s in (None, ts) and p in (PREDICATE_ANY, tp) and o in (None, to)
                )
                assert encoded.triple_ids(s, p, o) == ([] if p == PREDICATE_ABSENT else expected)


def id_triples_of(graph, encoded):
    id_of = encoded.dictionary.id_of
    return [(id_of(t.subject), id_of(t.predicate), id_of(t.object)) for t in graph]


class TestColumnPatches:
    @given(st.integers(0, 5_000), window_lists)
    @settings(max_examples=25, deadline=None)
    def test_patched_columns_equal_a_cold_build(self, seed, windows):
        graph = random_graph(seed, num_vertices=8, num_edges=20, num_predicates=3)
        triples, predicates = universe(graph)
        encoded = encoded_view(graph)
        for window in windows:
            apply_window(graph, window, triples, predicates)
            assert encoded_view(graph) is encoded
            id_triples = id_triples_of(graph, encoded)
            assert_columns_are_a_cold_build(encoded, id_triples)
            assert_probes_match_a_scan(encoded, id_triples)

    def test_remove_then_re_add_and_emptied_labels(self):
        graph = random_graph(3, num_vertices=6, num_edges=12, num_predicates=2)
        triples, predicates = universe(graph)
        encoded = encoded_view(graph)
        windows = [
            [("-+", 0), ("-+", 1)],  # removed and re-added inside one window
            [("-", 0)],
            [("+", 0)],  # re-added in the next window
            [("clear", 0)],  # a whole label empties out
            [("+", len(triples) - 1), ("clear", len(predicates) - 1)],  # a new label comes and goes
        ]
        for window in windows:
            apply_window(graph, window, triples, predicates)
            assert encoded_view(graph) is encoded
            id_triples = id_triples_of(graph, encoded)
            assert_columns_are_a_cold_build(encoded, id_triples)
            assert_probes_match_a_scan(encoded, id_triples)
