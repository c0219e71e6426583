"""Unit tests for per-variable candidate pools (``ArrayRunner.compute_pools``)."""

from repro.rdf import Literal, Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.partition import build_partitioned_graph
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store import EncodedGraph, TermDictionary
from repro.store.fragment_index import FragmentIndex, internal_pools
from repro.store.kernel import ArrayRunner

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


def candidates(data: RDFGraph, query: QueryGraph):
    """The kernel's pools over a fresh encoding of ``data``, decoded to terms."""
    encoded = EncodedGraph(data)
    pools = ArrayRunner(encoded).compute_pools(query)
    for pool in pools.values():
        assert pool == sorted(set(pool)), "a pool is ascending and duplicate-free"
    return {vertex: encoded.dictionary.decode_ids(pool) for vertex, pool in pools.items()}


class TestEdgeSupport:
    """A single-edge query's pool holds exactly the vertices supporting that edge."""

    def test_supported_outgoing_edge(self):
        q = query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y")))
        assert A in candidates(graph(), q)[Variable("x")]

    def test_unsupported_outgoing_edge(self):
        q = query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y")))
        assert D not in candidates(graph(), q)[Variable("x")]

    def test_supported_incoming_edge(self):
        q = query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y")))
        assert B in candidates(graph(), q)[Variable("y")]

    def test_constant_other_endpoint(self):
        q = query_graph(TriplePattern(Variable("x"), KNOWS, C))
        assert candidates(graph(), q)[Variable("x")] == {B}


class TestComputePools:
    def test_single_pattern_candidates(self):
        q = query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y")))
        found = candidates(graph(), q)
        assert found[Variable("x")] == {A, B, C}
        assert found[Variable("y")] == {B, C, D}

    def test_multi_pattern_candidates_intersect_constraints(self):
        # ?x knows ?y and ?x name "Alice" — only A satisfies both.
        q = query_graph(
            TriplePattern(Variable("x"), KNOWS, Variable("y")),
            TriplePattern(Variable("x"), NAME, Literal("Alice")),
        )
        assert candidates(graph(), q)[Variable("x")] == {A}

    def test_constant_vertex_candidates(self):
        q = query_graph(TriplePattern(A, KNOWS, Variable("y")))
        assert candidates(graph(), q)[A] == {A}

    def test_missing_constant_vertex_gives_empty_set(self):
        q = query_graph(TriplePattern(EX.term("missing"), KNOWS, Variable("y")))
        assert candidates(graph(), q)[EX.term("missing")] == set()

    def test_a_constant_with_an_id_but_no_edge_here_gives_empty_set(self):
        # One cluster dictionary gives every term an id at every site: an id
        # alone must not make a constant a candidate where it is no vertex.
        data = graph()
        elsewhere = EX.term("elsewhere")
        dictionary_terms = [term for triple in data for term in triple.as_tuple()] + [elsewhere]

        encoded = EncodedGraph(data, TermDictionary(dictionary_terms))
        q = query_graph(TriplePattern(elsewhere, KNOWS, Variable("y")), TriplePattern(Variable("x"), KNOWS, elsewhere))
        pools = ArrayRunner(encoded).compute_pools(q)
        assert pools[elsewhere] == [] and pools[Variable("x")] == [] and pools[Variable("y")] == []

    def test_internal_pools_restrict_to_the_fragment(self):
        # Stage 1's universe: the pools over a fragment's encoding, internal ids only.
        fragment = build_partitioned_graph(graph(), {A: 0, B: 0, C: 1, D: 1, Literal("Alice"): 0}, num_fragments=2)
        fragment = fragment.fragment(0)
        index = FragmentIndex.build(fragment)
        q = query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y")))
        pools = internal_pools(index, q)
        decode = pools.encoded.dictionary.decode_ids
        assert pools.encoded is index.encoded
        assert candidates(RDFGraph(fragment.all_edges), q)[Variable("y")] == {B, C}
        assert decode(pools[Variable("x")]) == {A, B}
        assert decode(pools[Variable("y")]) == {B}

    def test_candidates_of_a_chain(self):
        chain = RDFGraph([Triple(A, KNOWS, B), Triple(B, KNOWS, C)])
        found = candidates(chain, query_graph(TriplePattern(Variable("x"), KNOWS, Variable("y"))))
        assert found[Variable("x")] == {A, B}
        assert found[Variable("y")] == {B, C}

    def test_candidates_never_miss_true_matches(self):
        # Every vertex that actually participates in a match must be a candidate.
        q = query_graph(
            TriplePattern(Variable("x"), KNOWS, Variable("y")),
            TriplePattern(Variable("y"), KNOWS, Variable("z")),
        )
        found = candidates(graph(), q)
        # True matches: (A,B,C) and (B,C,D).
        assert {A, B} <= found[Variable("x")]
        assert {B, C} <= found[Variable("y")]
        assert {C, D} <= found[Variable("z")]
