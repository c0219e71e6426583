"""Unit tests for vertex signatures and the signature index."""

from repro.rdf import IRI, Literal, Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store import SignatureIndex, VertexSignature

EX = Namespace("http://example.org/")
A, B, C = EX.term("a"), EX.term("b"), EX.term("c")
KNOWS, LIKES = EX.term("knows"), EX.term("likes")


def small_graph() -> RDFGraph:
    graph = RDFGraph()
    graph.add(Triple(A, KNOWS, B))
    graph.add(Triple(B, LIKES, C))
    graph.add(Triple(A, LIKES, C))
    return graph


class TestVertexSignature:
    def test_covers_subset(self):
        big = VertexSignature(0b1110)
        small = VertexSignature(0b0110)
        assert big.covers(small)
        assert not small.covers(big)

    def test_union(self):
        assert (VertexSignature(0b01) | VertexSignature(0b10)).bits == 0b11

    def test_popcount(self):
        assert VertexSignature(0b1011).popcount() == 3


class TestSignatureIndex:
    def test_every_vertex_has_a_signature(self):
        graph = small_graph()
        index = SignatureIndex(graph)
        for vertex in graph.vertices:
            assert index.signature_of(vertex).bits != 0

    def test_unknown_vertex_has_empty_signature(self):
        index = SignatureIndex(small_graph())
        assert index.signature_of(EX.term("unknown")).bits == 0

    def test_signatures_are_deterministic(self):
        graph = small_graph()
        first = SignatureIndex(graph)
        second = SignatureIndex(graph)
        for vertex in graph.vertices:
            assert first.signature_of(vertex).bits == second.signature_of(vertex).bits

    def test_data_signature_covers_query_signature_for_true_match(self):
        graph = small_graph()
        index = SignatureIndex(graph)
        # Query: ?x knows ?y . ?x likes ?z — vertex A matches ?x.
        query = QueryGraph(
            BasicGraphPattern(
                [
                    TriplePattern(Variable("x"), KNOWS, Variable("y")),
                    TriplePattern(Variable("x"), LIKES, Variable("z")),
                ]
            )
        )
        needed = index.query_signature(query, Variable("x"))
        assert index.signature_of(A).covers(needed)
        # Vertex B has no outgoing `knows`, so it must not cover the signature.
        assert not index.signature_of(B).covers(needed)

    def test_candidates_by_signature_never_miss_true_candidates(self):
        graph = small_graph()
        index = SignatureIndex(graph)
        query = QueryGraph(
            BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))])
        )
        candidates = index.candidates_by_signature(query, Variable("x"))
        assert A in candidates

    def test_candidates_for_constant_vertex(self):
        graph = small_graph()
        index = SignatureIndex(graph)
        query = QueryGraph(BasicGraphPattern([TriplePattern(A, KNOWS, Variable("y"))]))
        assert index.candidates_by_signature(query, A) == {A}

    def test_skip_edges_relaxes_constraints(self):
        graph = small_graph()
        index = SignatureIndex(graph)
        query = QueryGraph(
            BasicGraphPattern(
                [
                    TriplePattern(Variable("x"), KNOWS, Variable("y")),
                    TriplePattern(Variable("x"), LIKES, Variable("z")),
                ]
            )
        )
        full = index.query_signature(query, Variable("x"))
        relaxed = index.query_signature(query, Variable("x"), skip_edges={0})
        assert full.covers(relaxed)
        assert full.bits != relaxed.bits

    def test_variable_predicate_adds_no_constraint(self):
        graph = small_graph()
        index = SignatureIndex(graph)
        query = QueryGraph(
            BasicGraphPattern([TriplePattern(Variable("x"), Variable("p"), Variable("y"))])
        )
        assert index.query_signature(query, Variable("x")).bits == 0


class TestJournalRepair:
    """Updates are folded in from the graph's journal, exactly and in place."""

    def test_a_removal_clears_exactly_the_bits_no_other_edge_sets(self):
        graph = small_graph()
        index = SignatureIndex(graph)
        graph.discard(Triple(A, LIKES, C))
        fresh = SignatureIndex(graph.copy())
        for vertex in (A, B, C):
            assert index.signature_of(vertex) == fresh.signature_of(vertex)
        # B -likes-> C still sets C's "in|likes" bit; A's "out|likes" bit is gone.
        assert index.signature_of(A).bits != SignatureIndex(small_graph()).signature_of(A).bits

    def test_repairs_never_rebuild_and_memoize_only_what_they_touched(self, monkeypatch):
        graph = small_graph()
        index = SignatureIndex(graph)
        assert index._memo == {}, "the cold build's positions must not outlive it"
        rebuilds = []
        real = SignatureIndex._rebuild
        monkeypatch.setattr(
            SignatureIndex, "_rebuild", lambda self, encoded: (rebuilds.append(1), real(self, encoded))
        )
        graph.add(Triple(C, KNOWS, A))
        index.signature_of(A)
        assert len(index._memo) == 3  # the predicate's masks + one position per direction
        graph.discard(Triple(A, KNOWS, B))
        index.signature_of(A)
        # A and B are recomputed from the edges they still have (A -likes-> C, C -knows-> A,
        # B -likes-> C): the second predicate's masks and three new positions, nothing else.
        assert len(index._memo) == 7
        assert rebuilds == []

    def test_a_journal_gap_falls_back_to_a_rebuild(self, monkeypatch):
        graph = small_graph()
        index = SignatureIndex(graph)
        graph.discard(Triple(A, LIKES, C))
        monkeypatch.setattr(graph, "journal_since", lambda version: None)
        fresh = SignatureIndex(graph.copy())
        assert all(index.signature_of(vertex) == fresh.signature_of(vertex) for vertex in (A, B, C))
