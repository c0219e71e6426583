"""Planner-through-the-stack tests: matcher, store, engine, statistics."""

from repro.core import EngineConfig, GStoreDEngine, STAGE_PLANNING
from repro.datasets import lubm
from repro.distributed import build_cluster
from repro.partition import HashPartitioner
from repro.planner import QueryPlanner, collect_statistics
from repro.rdf import TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store import EncodedGraph, LocalMatcher, TripleStore
import pytest


@pytest.fixture(scope="module")
def lubm_setup():
    graph = lubm.generate(scale=1)
    cluster = build_cluster(HashPartitioner(4).partition(graph))
    return graph, cluster, lubm.queries()


class TestMatcherIntegration:
    def test_planned_matcher_returns_identical_solutions(self, lubm_setup):
        graph, _, queries = lubm_setup
        static = LocalMatcher(EncodedGraph(graph))
        planned = LocalMatcher(EncodedGraph(graph), planner=QueryPlanner.from_graph(EncodedGraph(graph)))
        for query in queries.values():
            assert planned.evaluate(query).same_solutions(static.evaluate(query))

    def test_planner_reduces_search_steps_on_multi_join(self, lubm_setup):
        graph, _, queries = lubm_setup
        static = LocalMatcher(EncodedGraph(graph))
        planned = LocalMatcher(EncodedGraph(graph), planner=QueryPlanner.from_graph(EncodedGraph(graph)))
        static.evaluate(queries["LQ6"])
        planned.evaluate(queries["LQ6"])
        assert planned.search_steps < static.search_steps

    def test_explicit_order_wins_over_planner(self, lubm_setup):
        graph, _, queries = lubm_setup
        from repro.sparql import QueryGraph, traversal_order

        planned = LocalMatcher(EncodedGraph(graph), planner=QueryPlanner.from_graph(EncodedGraph(graph)))
        query_graph = QueryGraph(queries["LQ1"].bgp)
        seed_order = traversal_order(query_graph)
        forced = list(planned.find_matches(query_graph, order=seed_order))
        free = list(planned.find_matches(query_graph))
        assert {frozenset(m.items()) for m in forced} == {frozenset(m.items()) for m in free}


class TestTripleStoreIntegration:
    def test_planner_disabled_by_default(self, lubm_setup):
        graph, _, _ = lubm_setup
        store = TripleStore(EncodedGraph(graph))
        assert store.planner is None

    def test_enable_disable(self, lubm_setup):
        graph, _, _ = lubm_setup
        store = TripleStore(EncodedGraph(graph))
        planner = store.enable_planner(plan_cache_size=16)
        assert store.planner is planner
        assert store.matcher.planner is planner
        assert planner.cache.maxsize == 16
        store.disable_planner()
        assert store.planner is None
        assert store.matcher.planner is None

    def test_statistics_follow_the_patched_columns(self, tiny_graph):
        from repro.rdf import Namespace, Triple

        EX = Namespace("http://example.org/")
        store = TripleStore(EncodedGraph(tiny_graph))
        planner = store.enable_planner()
        before = store.statistics.num_triples
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), EX.term("knows"), Variable("y"))]))
        planner.plan_for(query)
        triple = Triple(EX.term("new1"), EX.term("knows"), EX.term("new2"))
        store.encoded.apply_ops([("+", store.encoded.dictionary.ensure_triple(triple))])
        assert store.statistics.num_triples == before + 1
        served = planner.plan_for(query)
        fresh = QueryPlanner(collect_statistics(EncodedGraph([*tiny_graph, triple]))).plan_for(query)
        assert (served.vertex_order, served.edge_order, served.estimates) == (
            fresh.vertex_order,
            fresh.edge_order,
            fresh.estimates,
        ), "a plan chosen against the old statistics was served"
        assert served.source == "statistics"


class TestEngineIntegration:
    def test_planner_on_and_off_agree(self, lubm_setup):
        _, cluster, queries = lubm_setup
        on = GStoreDEngine(cluster, EngineConfig.full())
        off = GStoreDEngine(cluster, EngineConfig.full().with_options(use_planner=False))
        for name in ("LQ1", "LQ2", "LQ6", "LQ7"):
            expected = off.execute(queries[name]).results
            actual = on.execute(queries[name]).results
            assert actual.same_solutions(expected)

    def test_planning_stage_recorded(self, lubm_setup):
        _, cluster, queries = lubm_setup
        result = GStoreDEngine(cluster, EngineConfig.full()).execute(queries["LQ1"])
        stats = result.statistics
        assert stats.find_stage(STAGE_PLANNING) is not None
        assert stats.extra["plan_source"] in {"statistics", "cache"}
        assert "plan_cache_hit_rate" in stats.extra

    def test_planner_off_records_no_planning_stage(self, lubm_setup):
        _, cluster, queries = lubm_setup
        config = EngineConfig.full().with_options(use_planner=False)
        result = GStoreDEngine(cluster, config).execute(queries["LQ1"])
        assert result.statistics.find_stage(STAGE_PLANNING) is None

    def test_repeated_queries_hit_plan_cache(self, lubm_setup):
        _, cluster, queries = lubm_setup
        engine = GStoreDEngine(cluster, EngineConfig.full())
        engine.execute(queries["LQ7"])
        result = engine.execute(queries["LQ7"])
        assert result.statistics.counter(STAGE_PLANNING, "plan_cache_hit") == 1

    def test_config_describe_has_planner_knobs(self):
        description = EngineConfig.full().describe()
        assert description["planner"] is True
        assert description["plan_cache_size"] > 0
