"""Unit tests for the centralized BGP matcher."""

from repro.rdf import IRI, Literal, Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph, SelectQuery, parse_query
from repro.store import LocalMatcher, evaluate_centralized
from repro.store.encoding import EncodedGraph

EX = Namespace("http://example.org/")
ALICE, BOB, CAROL, DAVE = EX.term("alice"), EX.term("bob"), EX.term("carol"), EX.term("dave")
KNOWS, NAME, AGE = EX.term("knows"), EX.term("name"), EX.term("age")


def social_graph() -> RDFGraph:
    graph = RDFGraph()
    graph.add(Triple(ALICE, KNOWS, BOB))
    graph.add(Triple(BOB, KNOWS, CAROL))
    graph.add(Triple(CAROL, KNOWS, ALICE))
    graph.add(Triple(ALICE, KNOWS, DAVE))
    graph.add(Triple(ALICE, NAME, Literal("Alice")))
    graph.add(Triple(BOB, NAME, Literal("Bob")))
    graph.add(Triple(CAROL, NAME, Literal("Carol")))
    return graph


def run(graph, text):
    return evaluate_centralized(graph, parse_query(text))


class TestFindMatches:
    def test_single_pattern_matches(self):
        matcher = LocalMatcher(EncodedGraph(social_graph()))
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))]))
        assert matcher.count_matches(query) == 4

    def test_path_matches(self):
        matcher = LocalMatcher(EncodedGraph(social_graph()))
        query = QueryGraph(
            BasicGraphPattern(
                [
                    TriplePattern(Variable("x"), KNOWS, Variable("y")),
                    TriplePattern(Variable("y"), KNOWS, Variable("z")),
                ]
            )
        )
        # alice->bob->carol, bob->carol->alice, carol->alice->bob, carol->alice->dave.
        assert matcher.count_matches(query) == 4

    def test_cycle_matches(self):
        matcher = LocalMatcher(EncodedGraph(social_graph()))
        query = QueryGraph(
            BasicGraphPattern(
                [
                    TriplePattern(Variable("x"), KNOWS, Variable("y")),
                    TriplePattern(Variable("y"), KNOWS, Variable("z")),
                    TriplePattern(Variable("z"), KNOWS, Variable("x")),
                ]
            )
        )
        assert matcher.count_matches(query) == 3  # the triangle, from each rotation

    def test_homomorphism_allows_repeated_data_vertices(self):
        graph = RDFGraph([Triple(ALICE, KNOWS, BOB), Triple(BOB, KNOWS, ALICE)])
        matcher = LocalMatcher(EncodedGraph(graph))
        query = QueryGraph(
            BasicGraphPattern(
                [
                    TriplePattern(Variable("x"), KNOWS, Variable("y")),
                    TriplePattern(Variable("y"), KNOWS, Variable("z")),
                ]
            )
        )
        # x and z may map to the same vertex: alice->bob->alice and bob->alice->bob.
        assert matcher.count_matches(query) == 2

    def test_variable_predicate(self):
        matcher = LocalMatcher(EncodedGraph(social_graph()))
        query = QueryGraph(
            BasicGraphPattern([TriplePattern(ALICE, Variable("p"), Variable("y"))])
        )
        assert matcher.count_matches(query) == 3

    def test_no_matches_for_absent_pattern(self):
        matcher = LocalMatcher(EncodedGraph(social_graph()))
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), AGE, Variable("y"))]))
        assert matcher.count_matches(query) == 0


class TestEvaluate:
    def test_select_with_constant(self):
        results = run(
            social_graph(),
            'PREFIX ex: <http://example.org/> SELECT ?who WHERE { ?who ex:name "Alice" . }',
        )
        assert len(results) == 1
        assert next(iter(results))[Variable("who")] == ALICE

    def test_projection(self):
        results = run(
            social_graph(),
            "PREFIX ex: <http://example.org/> SELECT ?y WHERE { ex:alice ex:knows ?y . }",
        )
        assert {binding[Variable("y")] for binding in results} == {BOB, DAVE}

    def test_distinct(self):
        results = run(
            social_graph(),
            "PREFIX ex: <http://example.org/> SELECT DISTINCT ?x WHERE { ?x ex:knows ?y . }",
        )
        assert len(results) == 3

    def test_limit(self):
        results = run(
            social_graph(),
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:knows ?y . } LIMIT 2",
        )
        assert len(results) == 2

    def test_join_query(self):
        results = run(
            social_graph(),
            "PREFIX ex: <http://example.org/> "
            "SELECT ?a ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c . ?a ex:name ?n . }",
        )
        assert len(results) == 4

    def test_disconnected_query_is_cross_product(self):
        results = run(
            social_graph(),
            "PREFIX ex: <http://example.org/> "
            'SELECT ?x ?y WHERE { ?x ex:name "Alice" . ?y ex:name "Bob" . }',
        )
        assert len(results) == 1
        binding = next(iter(results))
        assert binding[Variable("x")] == ALICE
        assert binding[Variable("y")] == BOB

    def test_empty_result_for_unsatisfiable_query(self):
        results = run(
            social_graph(),
            'PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:name "Nobody" . }',
        )
        assert len(results) == 0

    def test_paper_example_answer_count(self, example_graph, example_query_obj):
        results = evaluate_centralized(example_graph, example_query_obj)
        assert len(results) == 4
