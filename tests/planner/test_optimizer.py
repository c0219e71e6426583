"""Unit tests for the greedy plan optimizer and the QueryPlanner facade."""

from repro.planner import (
    PlanOptimizer,
    QueryPlanner,
    SOURCE_CACHE,
    SOURCE_FALLBACK,
    SOURCE_STATISTICS,
    collect_statistics,
)
from repro.rdf import Namespace, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql import BasicGraphPattern, QueryGraph, parse_query, traversal_order
from repro.store.encoding import EncodedGraph

EX = Namespace("http://example.org/")


def query_of(*patterns):
    return QueryGraph(BasicGraphPattern(list(patterns)))


class TestFallback:
    def test_no_statistics_matches_seed_order(self, tiny_graph):
        query = query_of(
            TriplePattern(Variable("x"), EX.term("knows"), Variable("y")),
            TriplePattern(Variable("y"), EX.term("knows"), Variable("z")),
        )
        plan = PlanOptimizer(None).plan(query)
        assert plan.source == SOURCE_FALLBACK
        assert plan.order_for(query) == traversal_order(query)
        assert list(plan.edge_order) == [0, 1]

    def test_empty_statistics_fall_back(self, tiny_graph):
        from repro.planner import GraphStatistics

        query = query_of(TriplePattern(Variable("x"), EX.term("knows"), Variable("y")))
        plan = PlanOptimizer(GraphStatistics()).plan(query)
        assert plan.source == SOURCE_FALLBACK


class TestGreedyPlan:
    def plan(self, graph, query):
        return PlanOptimizer(collect_statistics(EncodedGraph(graph))).plan(query)

    def test_connectivity_preserved(self, lubm_graph):
        ub = Namespace("http://example.org/univ-bench#")
        query = query_of(
            TriplePattern(Variable("x"), ub.term("advisor"), Variable("y")),
            TriplePattern(Variable("y"), ub.term("teacherOf"), Variable("z")),
            TriplePattern(Variable("x"), ub.term("takesCourse"), Variable("z")),
        )
        plan = self.plan(lubm_graph, query)
        assert plan.source == SOURCE_STATISTICS
        order = plan.order_for(query)
        assert sorted(order, key=str) == sorted(query.vertices, key=str)
        placed = {order[0]}
        for vertex in order[1:]:
            assert query.neighbours(vertex) & placed
            placed.add(vertex)

    def test_constant_anchored_start(self, tiny_graph):
        query = query_of(
            TriplePattern(Variable("x"), EX.term("knows"), Variable("y")),
            TriplePattern(Variable("x"), EX.term("likes"), EX.term("c")),
        )
        plan = self.plan(tiny_graph, query)
        # The constant vertex has cardinality 1 and is picked first.
        assert plan.order_for(query)[0] == EX.term("c")

    def test_selective_edges_ranked_first(self, tiny_graph):
        query = query_of(
            TriplePattern(Variable("x"), EX.term("knows"), Variable("y")),  # 2 triples
            TriplePattern(Variable("x"), EX.term("likes"), Variable("z")),  # 1 triple
        )
        plan = self.plan(tiny_graph, query)
        assert list(plan.edge_order) == [1, 0]

    def test_plan_is_deterministic(self, lubm_graph):
        query = query_of(
            TriplePattern(Variable("a"), EX.term("p"), Variable("b")),
            TriplePattern(Variable("b"), EX.term("p"), Variable("c")),
        )
        plans = {self.plan(lubm_graph, query).vertex_order for _ in range(5)}
        assert len(plans) == 1

    def test_disconnected_query_covers_all_vertices(self, tiny_graph):
        query = query_of(
            TriplePattern(Variable("x"), EX.term("knows"), Variable("y")),
            TriplePattern(Variable("a"), EX.term("name"), Variable("n")),
        )
        plan = self.plan(tiny_graph, query)
        assert len(plan.order_for(query)) == 4

    def test_estimates_parallel_to_order(self, tiny_graph):
        query = query_of(
            TriplePattern(Variable("x"), EX.term("knows"), Variable("y")),
            TriplePattern(Variable("y"), EX.term("name"), Variable("n")),
        )
        plan = self.plan(tiny_graph, query)
        assert len(plan.estimates) == len(plan.vertex_order)
        assert plan.estimated_cost > 0


class TestQueryPlanner:
    def test_cache_hit_on_second_plan(self, tiny_graph):
        planner = QueryPlanner.from_graph(EncodedGraph(tiny_graph))
        query = query_of(TriplePattern(Variable("x"), EX.term("knows"), Variable("y")))
        first = planner.plan_for(query)
        second = planner.plan_for(query)
        assert first.source == SOURCE_STATISTICS
        assert second.source == SOURCE_CACHE
        assert second.vertex_order == first.vertex_order
        assert planner.cache.hits == 1

    def test_cache_shared_across_constant_instantiations(self, tiny_graph):
        planner = QueryPlanner.from_graph(EncodedGraph(tiny_graph))
        for_a = query_of(TriplePattern(EX.term("a"), EX.term("knows"), Variable("y")))
        for_b = query_of(TriplePattern(EX.term("b"), EX.term("knows"), Variable("y")))
        planner.plan_for(for_a)
        plan = planner.plan_for(for_b)
        assert plan.source == SOURCE_CACHE

    def test_explain_renders_order_and_estimates(self, tiny_graph):
        planner = QueryPlanner.from_graph(EncodedGraph(tiny_graph))
        query = query_of(
            TriplePattern(Variable("x"), EX.term("knows"), Variable("y")),
            TriplePattern(Variable("y"), EX.term("name"), Variable("n")),
        )
        text = planner.explain(query)
        assert "vertex order:" in text
        assert "?x" in text and "?y" in text
        assert "edge order:" in text
        assert "estimated cost" in text

    def test_order_for_is_a_permutation(self, lubm_graph):
        planner = QueryPlanner.from_graph(EncodedGraph(lubm_graph))
        query = parse_query(
            "PREFIX ub: <http://example.org/univ-bench#> "
            "SELECT ?x ?y WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?d . }"
        )
        query_graph = QueryGraph(query.bgp)
        order = planner.order_for(query_graph)
        assert sorted(order, key=str) == sorted(query_graph.vertices, key=str)
