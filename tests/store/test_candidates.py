"""Unit tests for per-variable candidate computation."""

from repro.rdf import IRI, Literal, Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.partition import build_partitioned_graph
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store import compute_candidates, edge_supported
from repro.store.fragment_index import FragmentIndex, internal_pools

EX = Namespace("http://example.org/")
A, B, C, D = EX.term("a"), EX.term("b"), EX.term("c"), EX.term("d")
KNOWS, NAME = EX.term("knows"), EX.term("name")


def graph() -> RDFGraph:
    g = RDFGraph()
    g.add(Triple(A, KNOWS, B))
    g.add(Triple(B, KNOWS, C))
    g.add(Triple(C, KNOWS, D))
    g.add(Triple(A, NAME, Literal("Alice")))
    return g


def query_graph(*patterns) -> QueryGraph:
    return QueryGraph(BasicGraphPattern(patterns))


class TestEdgeSupported:
    def test_supported_outgoing_edge(self):
        q = query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y")))
        assert edge_supported(graph(), A, q, Variable("x"), 0)

    def test_unsupported_outgoing_edge(self):
        q = query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y")))
        assert not edge_supported(graph(), D, q, Variable("x"), 0)

    def test_supported_incoming_edge(self):
        q = query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y")))
        assert edge_supported(graph(), B, q, Variable("y"), 0)

    def test_constant_other_endpoint(self):
        q = query_graph(TriplePattern(Variable("x"), KNOWS, C))
        assert edge_supported(graph(), B, q, Variable("x"), 0)
        assert not edge_supported(graph(), A, q, Variable("x"), 0)


class TestComputeCandidates:
    def test_single_pattern_candidates(self):
        q = query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y")))
        candidates = compute_candidates(graph(), q)
        assert candidates[Variable("x")] == {A, B, C}
        assert candidates[Variable("y")] == {B, C, D}

    def test_multi_pattern_candidates_intersect_constraints(self):
        # ?x knows ?y and ?x name "Alice" — only A satisfies both.
        q = query_graph(
            TriplePattern(Variable("x"), KNOWS, Variable("y")),
            TriplePattern(Variable("x"), NAME, Literal("Alice")),
        )
        candidates = compute_candidates(graph(), q)
        assert candidates[Variable("x")] == {A}

    def test_constant_vertex_candidates(self):
        q = query_graph(TriplePattern(A, KNOWS, Variable("y")))
        candidates = compute_candidates(graph(), q)
        assert candidates[A] == {A}

    def test_missing_constant_vertex_gives_empty_set(self):
        q = query_graph(TriplePattern(EX.term("missing"), KNOWS, Variable("y")))
        candidates = compute_candidates(graph(), q)
        assert candidates[EX.term("missing")] == set()

    def test_internal_pools_restrict_to_the_fragment(self):
        # Stage 1's universe: the pools over a fragment's graph, internal ids only.
        fragment = build_partitioned_graph(graph(), {A: 0, B: 0, C: 1, D: 1, Literal("Alice"): 0}, num_fragments=2)
        fragment = fragment.fragment(0)
        index = FragmentIndex.build(fragment)
        q = query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y")))
        candidates = internal_pools(index, q)
        decode = candidates.encoded.dictionary.decode_ids
        assert candidates.encoded is index.encoded
        assert compute_candidates(RDFGraph(fragment.all_edges), q)[Variable("y")] == {B, C}
        assert decode(candidates[Variable("x")]) == {A, B}
        assert decode(candidates[Variable("y")]) == {B}

    def test_candidates_of_a_chain(self):
        chain = RDFGraph([Triple(A, KNOWS, B), Triple(B, KNOWS, C)])
        candidates = compute_candidates(chain, query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y"))))
        assert candidates[Variable("x")] == {A, B}
        assert candidates[Variable("y")] == {B, C}

    def test_relaxed_edges_drop_constraints(self):
        q = query_graph(
            TriplePattern(Variable("x"), KNOWS, Variable("y")),
            TriplePattern(Variable("x"), NAME, Literal("Alice")),
        )
        relaxed = compute_candidates(graph(), q, relaxed_edges={Variable("x"): {1}})
        assert relaxed[Variable("x")] == {A, B, C}

    def test_all_edges_relaxed_allows_everything(self):
        q = query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y")))
        relaxed = compute_candidates(graph(), q, relaxed_edges={Variable("x"): {0}})
        assert relaxed[Variable("x")] == graph().vertices

    def test_candidates_never_miss_true_matches(self):
        # Every vertex that actually participates in a match must be a candidate.
        q = query_graph(
            TriplePattern(Variable("x"), KNOWS, Variable("y")),
            TriplePattern(Variable("y"), KNOWS, Variable("z")),
        )
        candidates = compute_candidates(graph(), q)
        # True matches: (A,B,C) and (B,C,D).
        assert {A, B} <= candidates[Variable("x")]
        assert {B, C} <= candidates[Variable("y")]
        assert {C, D} <= candidates[Variable("z")]
