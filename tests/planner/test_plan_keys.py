"""Plans keyed by the statistics they read: what an update keeps and what it replans.

A plan is cached under its query's shape and the statistics the estimator
reads for it, so an update clears nothing: a window that changes a
predicate's summary replans the queries over it, every other plan stays, and
a statistics state that comes back — the remove-then-re-add of an update
stream — finds its plans again.  Whether statistics or the static fallback
order plans a query is decided per plan, so a store that starts empty and is
then patched plans like one built over the same triples.
"""

import pytest

from repro.core import EngineConfig, GStoreDEngine
from repro.datasets import lubm, random_graph
from repro.distributed import build_cluster
from repro.partition import HashPartitioner
from repro.planner import QueryPlanner, collect_statistics
from repro.rdf import Namespace, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store import EncodedGraph, TripleStore

EX = Namespace("http://example.org/")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def query_of(*patterns):
    return QueryGraph(BasicGraphPattern(list(patterns)))


def plan_fields(plan):
    return (plan.vertex_order, plan.edge_order, plan.estimates, plan.estimated_cost)


def patch(store, ops):
    """Apply ``("+"|"-", Triple)`` ops to ``store``'s encoding, as a site does."""
    store.encoded.apply_ops([(op, store.encoded.dictionary.ensure_triple(triple)) for op, triple in ops])


class TestPlannerDecidesPerPlan:
    def test_a_patched_empty_store_plans_like_a_fresh_one(self):
        graph = random_graph(11, num_vertices=12, num_edges=30, num_predicates=3)
        p0, p1 = sorted(graph.predicates, key=lambda term: term.n3())[:2]
        query = query_of(TriplePattern(X, p0, Y), TriplePattern(Y, p1, Z))
        patched = TripleStore(EncodedGraph([]))
        planner = patched.enable_planner()
        assert planner.plan_for(query).source == "fallback"
        patch(patched, [("+", triple) for triple in sorted(graph, key=lambda triple: triple.n3())])
        fresh = TripleStore(EncodedGraph(graph)).enable_planner()
        served, expected = planner.plan_for(query), fresh.plan_for(query)
        assert expected.source == "statistics"
        assert served.source == "statistics"
        assert plan_fields(served) == plan_fields(expected)

    def test_a_store_emptied_by_a_patch_falls_back(self):
        graph = random_graph(12, num_vertices=8, num_edges=12, num_predicates=2)
        p0 = sorted(graph.predicates, key=lambda term: term.n3())[0]
        query = query_of(TriplePattern(X, p0, Y))
        store = TripleStore(EncodedGraph(graph))
        planner = store.enable_planner()
        assert planner.plan_for(query).source == "statistics"
        patch(store, [("-", triple) for triple in sorted(graph, key=lambda triple: triple.n3())])
        assert not planner.has_statistics
        assert planner.plan_for(query).source == "fallback"
        assert plan_fields(planner.plan_for(query)) == plan_fields(QueryPlanner().plan_for(query))


class TestUpdatesKeepUntouchedPlans:
    def test_a_window_replans_only_queries_over_what_it_changed(self):
        graph = random_graph(13, num_vertices=10, num_edges=24, num_predicates=3)
        p0, p1 = sorted(graph.predicates, key=lambda term: term.n3())[:2]
        over_p0, over_p1 = query_of(TriplePattern(X, p0, Y)), query_of(TriplePattern(X, p1, Y))
        variable = query_of(TriplePattern(X, Variable("p"), Y))
        store = TripleStore(EncodedGraph(graph))
        planner = store.enable_planner()
        for query in (over_p0, over_p1, variable):
            planner.plan_for(query)
        patch(store, [("+", Triple(EX.term("fresh"), p1, EX.term("other")))])
        assert planner.plan_for(over_p0).source == "cache"
        assert planner.plan_for(over_p1).source == "statistics"
        # A variable predicate reads the graph's counts, which every window moves.
        assert planner.plan_for(variable).source == "statistics"

    def test_a_hit_returns_the_stored_plan(self):
        graph = random_graph(14, num_vertices=8, num_edges=16, num_predicates=2)
        p0 = sorted(graph.predicates, key=lambda term: term.n3())[0]
        query = query_of(TriplePattern(X, p0, Y), TriplePattern(Y, p0, Z))
        planner = QueryPlanner(collect_statistics(EncodedGraph(graph)))
        first = planner.plan_for(query)
        hit = planner.plan_for(query)
        assert first.source == "statistics"
        assert hit.source == "cache"
        assert planner.plan_for(query) is hit
        assert plan_fields(hit) == plan_fields(first)


@pytest.fixture(scope="module")
def lubm_cluster():
    return build_cluster(HashPartitioner(4).partition(lubm.generate(scale=1))), lubm.queries()


def planners(cluster, engine):
    return [site.planner for site in cluster] + [cluster.coordinator_planner(engine.config.plan_cache_size)]


def coordinator_sources(engine, reads):
    return [engine.execute(query).statistics.extra.get("plan_source") for query in reads]


def test_remove_then_re_add_plans_from_the_cache(lubm_cluster):
    """The ``update_query`` pattern: remove a batch, read, add it back, read."""
    cluster, queries = lubm_cluster
    engine = GStoreDEngine(cluster, EngineConfig.full())
    reads = [queries[name] for name in ("LQ2", "LQ6", "LQ3")]
    graph = cluster.graph
    by_predicate = {}
    for triple in sorted(graph, key=lambda triple: triple.n3()):
        by_predicate.setdefault(triple.predicate, triple)
    batch = list(by_predicate.values())[:10]
    for query in reads:
        engine.execute(query)
    cluster.apply(remove=batch)
    for query in reads:
        engine.execute(query)
    cluster.apply(add=batch)
    misses = [planner.cache.misses for planner in planners(cluster, engine)]
    site_hits = sum(site.planner.cache.hits for site in cluster)
    # The coordinator plans all but the star query (LQ2); the sites plan what they match locally.
    assert coordinator_sources(engine, reads) == [None, "cache", "cache"]
    assert [planner.cache.misses for planner in planners(cluster, engine)] == misses
    assert sum(site.planner.cache.hits for site in cluster) > site_hits
    cluster.apply(remove=batch)
    assert coordinator_sources(engine, reads) == [None, "cache", "cache"]
    assert [planner.cache.misses for planner in planners(cluster, engine)] == misses
