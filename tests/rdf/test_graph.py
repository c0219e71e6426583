"""Unit tests for the indexed RDF graph."""

from repro.rdf import IRI, Literal, Namespace, RDFGraph, Triple

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


class TestMutation:
    def test_add_returns_true_for_new_triple(self):
        graph = RDFGraph()
        assert graph.add(Triple(A, KNOWS, B)) is True

    def test_add_is_idempotent(self):
        graph = RDFGraph()
        graph.add(Triple(A, KNOWS, B))
        assert graph.add(Triple(A, KNOWS, B)) is False
        assert len(graph) == 1

    def test_add_all_counts_new_triples(self):
        graph = RDFGraph()
        added = graph.add_all([Triple(A, KNOWS, B), Triple(A, KNOWS, B), Triple(B, KNOWS, C)])
        assert added == 2

    def test_discard_removes_from_every_index(self):
        graph = build_graph()
        assert graph.discard(Triple(A, KNOWS, B)) is True
        assert Triple(A, KNOWS, B) not in graph
        assert list(graph.triples(A, KNOWS, None)) == []
        assert B not in graph.neighbours(A)

    def test_discard_missing_returns_false(self):
        assert build_graph().discard(Triple(C, KNOWS, A)) is False


class TestTripleAccess:
    def test_len_and_contains(self):
        graph = build_graph()
        assert len(graph) == 4
        assert Triple(A, KNOWS, B) in graph

    def test_lookup_by_subject(self):
        graph = build_graph()
        assert {t.object for t in graph.triples(A, None, None)} == {B, C}

    def test_lookup_by_predicate(self):
        graph = build_graph()
        assert {t.subject for t in graph.triples(None, KNOWS, None)} == {A, B}

    def test_lookup_by_object(self):
        graph = build_graph()
        assert {t.subject for t in graph.triples(None, None, C)} == {B, A}

    def test_lookup_by_subject_and_predicate(self):
        graph = build_graph()
        assert [t.object for t in graph.triples(A, KNOWS, None)] == [B]

    def test_lookup_by_subject_and_object(self):
        graph = build_graph()
        assert {t.predicate for t in graph.triples(A, None, C)} == {LIKES}

    def test_lookup_by_predicate_and_object(self):
        graph = build_graph()
        assert {t.subject for t in graph.triples(None, KNOWS, C)} == {B}

    def test_fully_bound_lookup(self):
        graph = build_graph()
        assert list(graph.triples(A, KNOWS, B)) == [Triple(A, KNOWS, B)]
        assert list(graph.triples(A, KNOWS, C)) == []

    def test_count(self):
        graph = build_graph()
        assert graph.count(None, KNOWS, None) == 2
        assert graph.count() == 4


class TestGraphView:
    def test_vertices_and_predicates(self):
        graph = build_graph()
        assert graph.vertices == {A, B, C, Literal("Carol")}
        assert graph.predicates == {KNOWS, LIKES, NAME}

    def test_entities_exclude_literals(self):
        assert Literal("Carol") not in build_graph().entities

    def test_neighbours_are_undirected(self):
        graph = build_graph()
        assert graph.neighbours(C) == {B, A, Literal("Carol")}

    def test_degree_counts_both_directions(self):
        graph = build_graph()
        assert graph.degree(C) == 3
        assert graph.degree(A) == 2

    def test_out_and_in_edges(self):
        graph = build_graph()
        assert {t.object for t in graph.out_edges(A)} == {B, C}
        assert {t.subject for t in graph.in_edges(C)} == {A, B}

    def test_subjects_and_objects_helpers(self):
        graph = build_graph()
        assert graph.subjects(predicate=KNOWS) == {A, B}
        assert graph.objects(subject=A) == {B, C}


class TestWholeGraphHelpers:
    def test_copy_is_independent(self):
        graph = build_graph()
        clone = graph.copy()
        clone.add(Triple(C, KNOWS, A))
        assert len(graph) == 4
        assert len(clone) == 5

    def test_union_operator(self):
        left = RDFGraph([Triple(A, KNOWS, B)])
        right = RDFGraph([Triple(B, KNOWS, C)])
        assert len(left | right) == 2

    def test_equality_is_by_triple_set(self):
        assert build_graph() == build_graph()

    def test_connected_components_single(self):
        assert len(build_graph().connected_components()) == 1

    def test_connected_components_multiple(self):
        graph = build_graph()
        d, e = EX.term("d"), EX.term("e")
        graph.add(Triple(d, KNOWS, e))
        components = graph.connected_components()
        assert len(components) == 2
        assert {d, e} in components

    def test_induced_subgraph(self):
        graph = build_graph()
        sub = graph.induced_subgraph({A, B, C})
        assert len(sub) == 3  # the name-literal edge is dropped
        assert Triple(C, NAME, Literal("Carol")) not in sub

    def test_stats(self):
        stats = build_graph().stats()
        assert stats == {"triples": 4, "vertices": 4, "predicates": 3}


class TestCountUsesIndexes:
    def test_count_matches_iteration_for_every_shape(self):
        graph = build_graph()
        shapes = [
            (A, KNOWS, B),
            (A, KNOWS, None),
            (A, None, C),
            (None, KNOWS, C),
            (A, None, None),
            (None, None, C),
            (None, KNOWS, None),
            (None, None, None),
        ]
        for subject, predicate, object in shapes:
            expected = sum(1 for _ in graph.triples(subject, predicate, object))
            assert graph.count(subject, predicate, object) == expected

    def test_count_of_absent_combinations_is_zero(self):
        graph = build_graph()
        missing = EX.term("missing")
        assert graph.count(missing, KNOWS, B) == 0
        assert graph.count(missing, None, None) == 0
        assert graph.count(None, missing, None) == 0
        assert graph.count(None, None, missing) == 0
        assert graph.count(A, KNOWS, C) == 0


class TestIndexHygiene:
    def test_vertices_does_not_grow_the_adjacency_indexes(self):
        graph = build_graph()
        # Make the adjacency maps one-sided: A has no incoming edges and the
        # literal has no outgoing ones, so the old membership probes would
        # insert empty sets for them on every .vertices call.
        out_keys = set(graph._out.keys())
        in_keys = set(graph._in.keys())
        for _ in range(3):
            graph.vertices
        assert set(graph._out.keys()) == out_keys
        assert set(graph._in.keys()) == in_keys

    def test_add_and_discard_report_only_real_mutation(self):
        # Cluster.apply_ops keeps exactly the ops these calls report as effective.
        graph = build_graph()
        size = len(graph)
        assert not graph.add(Triple(A, KNOWS, B))  # duplicate: no change
        assert not graph.discard(Triple(A, KNOWS, Literal("nope")))  # absent: no change
        assert len(graph) == size
        assert graph.add(Triple(B, LIKES, A))
        assert graph.discard(Triple(B, LIKES, A))
        assert len(graph) == size and Triple(B, LIKES, A) not in graph
        assert not hasattr(graph, "version")
