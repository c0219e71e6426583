"""Unit tests for the dictionary-encoding layer (repro.store.encoding)."""

import gc

from repro.datasets import random_graph
from repro.rdf import IRI, Literal, Namespace, RDFGraph, Triple
from repro.rdf.terms import Term
from repro.store import EncodedGraph, TermDictionary, encoded_view
from repro.store.encoding import PREDICATE_ABSENT, PREDICATE_ANY, term_sort_key

EX = Namespace("http://example.org/")
A, B, C = EX.term("a"), EX.term("b"), EX.term("c")
KNOWS, LIKES, NAME = EX.term("knows"), EX.term("likes"), EX.term("name")


def build_graph() -> RDFGraph:
    graph = RDFGraph()
    graph.add(Triple(A, KNOWS, B))
    graph.add(Triple(B, KNOWS, C))
    graph.add(Triple(A, LIKES, C))
    graph.add(Triple(C, NAME, Literal("Carol")))
    return graph


class TestTermDictionary:
    def test_ids_are_dense_and_bidirectional(self):
        dictionary = TermDictionary([A, B, KNOWS, Literal("x")])
        assert len(dictionary) == 4
        for term in (A, B, KNOWS, Literal("x")):
            assert dictionary.term_of(dictionary.id_of(term)) == term

    def test_id_order_is_the_candidate_sort_order(self):
        terms = [C, Literal("Carol"), A, KNOWS, B, NAME, LIKES]
        dictionary = TermDictionary(terms)
        by_id = [dictionary.term_of(i) for i in range(len(dictionary))]
        assert by_id == sorted(set(terms), key=term_sort_key)

    def test_any_id_subset_sorts_like_the_terms(self):
        dictionary = TermDictionary([A, B, C, KNOWS, Literal("Carol")])
        subset = {A, Literal("Carol"), C}
        ids = sorted(dictionary.encode_nodes(subset))
        assert [dictionary.term_of(i) for i in ids] == sorted(subset, key=term_sort_key)

    def test_unknown_terms_are_none_or_dropped(self):
        dictionary = TermDictionary([A, B])
        assert dictionary.get(C) is None
        assert C not in dictionary
        assert dictionary.encode_nodes([A, C]) == {dictionary.id_of(A)}

    def test_n3_is_precomputed(self):
        dictionary = TermDictionary([A, Literal("Carol")])
        for term_id in range(len(dictionary)):
            assert dictionary.n3_of(term_id) == dictionary.term_of(term_id).n3()


class TestEncodedGraph:
    def test_indexes_agree_with_the_object_graph(self):
        graph = build_graph()
        encoded = EncodedGraph(graph)
        id_of = encoded.dictionary.id_of
        for triple in graph:
            s, p, o = id_of(triple.subject), id_of(triple.predicate), id_of(triple.object)
            assert encoded.has_edge(s, p, o)
            assert s in encoded.subjects_to(p, o)
            assert o in encoded.objects_from(s, p)
            assert encoded.has_edge(s, PREDICATE_ANY, o)
        assert encoded.num_triples == len(graph)

    def test_vertex_ids_exclude_pure_predicates(self):
        graph = build_graph()
        encoded = EncodedGraph(graph)
        decoded = encoded.dictionary.decode_ids(encoded.sorted_vertex_ids)
        assert decoded == graph.vertices
        assert not encoded.is_vertex(encoded.dictionary.id_of(KNOWS))

    def test_absent_probes_are_empty(self):
        encoded = EncodedGraph(build_graph())
        id_of = encoded.dictionary.id_of
        assert not encoded.has_edge(id_of(A), PREDICATE_ABSENT, id_of(B))
        assert not encoded.has_edge(id_of(B), id_of(NAME), id_of(A))
        assert encoded.subjects_to(PREDICATE_ABSENT, id_of(B)) == []
        assert encoded.objects_from(id_of(A), PREDICATE_ABSENT) == []
        assert encoded.subjects_of_predicate(PREDICATE_ABSENT) == []
        assert encoded.objects_of_predicate(PREDICATE_ABSENT) == []

    def test_predicate_wide_probes(self):
        encoded = EncodedGraph(build_graph())
        id_of = encoded.dictionary.id_of
        assert encoded.subjects_of_predicate(id_of(KNOWS)) == sorted([id_of(A), id_of(B)])
        assert encoded.objects_of_predicate(id_of(KNOWS)) == sorted([id_of(B), id_of(C)])
        assert encoded.has_out_edge(id_of(A), id_of(KNOWS))
        assert not encoded.has_out_edge(id_of(C), id_of(KNOWS))
        assert encoded.has_in_edge(id_of(C), PREDICATE_ANY)
        assert not encoded.has_in_edge(id_of(A), PREDICATE_ANY)

    def test_iter_triple_ids_round_trips(self):
        graph = build_graph()
        encoded = EncodedGraph(graph)
        term_of = encoded.dictionary.term_of
        rebuilt = {Triple(term_of(s), term_of(p), term_of(o)) for s, p, o in encoded.iter_triple_ids()}
        assert rebuilt == set(graph)

    def test_triple_ids_is_the_sorted_id_form_of_graph_triples(self):
        graph = random_graph(7, num_vertices=8, num_edges=30, num_predicates=3)
        graph.add(Triple(A, KNOWS, A))  # a loop
        encoded = EncodedGraph(graph)
        id_of, term_of = encoded.dictionary.id_of, encoded.dictionary.term_of
        vertices = sorted(graph.vertices, key=term_sort_key)
        predicates = sorted(graph.predicates, key=term_sort_key)
        patterns = [(s, p, o) for s in [None, *vertices] for p in [None, *predicates] for o in [None, *vertices]]
        for s, p, o in patterns:
            if s is None and o is None:
                continue
            found = encoded.triple_ids(
                None if s is None else id_of(s),
                PREDICATE_ANY if p is None else id_of(p),
                None if o is None else id_of(o),
            )
            assert found == sorted(found)
            decoded = [Triple(*(term_of(term_id) for term_id in ids)) for ids in found]
            assert len(decoded) == len(set(decoded))
            assert set(decoded) == set(graph.triples(s, p, o))
        assert encoded.triple_ids(id_of(A), PREDICATE_ABSENT, None) == []
        assert encoded.triple_ids(-1, PREDICATE_ANY, None) == []

    def test_sorted_vertex_ids_are_sorted_and_complete(self):
        graph = build_graph()
        encoded = EncodedGraph(graph)
        assert encoded.sorted_vertex_ids == sorted(encoded.dictionary.encode_nodes(graph.vertices))


class TestEncodedViewCache:
    def test_view_is_patched_in_place_when_the_graph_changes(self):
        graph = build_graph()
        first = encoded_view(graph)
        assert encoded_view(graph) is first
        graph.add(Triple(B, LIKES, A))
        # A single append patches the cached encoding in place instead of
        # rebuilding it (the delta machinery of repro.persist).
        second = encoded_view(graph)
        assert second is first
        id_of = second.dictionary.id_of
        assert second.has_edge(id_of(B), id_of(LIKES), id_of(A))

    def test_noop_mutations_keep_the_cache(self):
        graph = build_graph()
        first = encoded_view(graph)
        graph.add(Triple(A, KNOWS, B))  # already present
        assert encoded_view(graph) is first

    def test_copies_do_not_share_the_cache(self):
        graph = build_graph()
        first = encoded_view(graph)
        copy = graph.copy()
        assert encoded_view(copy) is not first


class TestKernelSurvivesMutation:
    def test_matcher_is_correct_after_graph_mutation(self):
        # The matcher was built before the mutation; dense ids shift when
        # the encoding rebuilds, so its pools must follow the new ids.
        from repro.sparql import BasicGraphPattern, QueryGraph
        from repro.rdf import TriplePattern, Variable
        from repro.store import LocalMatcher

        graph = build_graph()
        matcher = LocalMatcher(graph)
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))]))
        assert matcher.count_matches(query) == 2
        zed = EX.term("zed")
        graph.add(Triple(zed, KNOWS, A))
        graph.add(Triple(EX.term("aaa"), NAME, Literal("Aaa")))  # shifts low ids
        matches = list(matcher.find_matches(query))
        assert {(m[Variable("x")], m[Variable("y")]) for m in matches} == {
            (A, B),
            (B, C),
            (zed, A),
        }


def tracked_containers(encoded: EncodedGraph) -> int:
    """GC-tracked objects reachable from ``encoded``, terms and classes not entered."""
    seen, stack = set(), [encoded]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (Term, type)) or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


class TestGCFootprint:
    def test_tracked_containers_follow_the_predicates_not_the_triples(self):
        """A full collection walks every tracked container, so their number must not grow with the data."""
        small = random_graph(1, num_vertices=30, num_edges=80, num_predicates=4)
        big = small.copy()
        big.add_all(random_graph(2, num_vertices=60, num_edges=200, num_predicates=4))
        assert big.predicates == small.predicates
        assert len(big) >= 2 * len(small)
        assert tracked_containers(EncodedGraph(big)) == tracked_containers(EncodedGraph(small))
        # A label costs its two columns: a fixed handful of containers, never one per row.
        assert tracked_containers(EncodedGraph(small)) < len(small)
