"""Every plan served after an update equals the plan a fresh planner computes.

A plan is cached under its query's shape and the statistics it read, and an
update clears no cache.  Random windows of ops — additions, removals, a
triple removed and re-added inside one window or across two, a predicate
whose triples all go and then come back, triples over a new predicate — are
applied to a :class:`~repro.store.TripleStore` whose encoding the test
patches, and through :meth:`~repro.distributed.Cluster.apply_ops` to a
cluster whose site planners and coordinator planner are warm.  After every
window each plan a planner serves, for queries with constant and with
variable predicates, must equal a fresh :class:`~repro.planner.QueryPlanner`'s
over fresh encodings of the triples (and homes) the test follows itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror import Mirror
from repro.datasets import random_assignment, random_graph
from repro.distributed import build_cluster
from repro.partition import build_partitioned_graph
from repro.planner import QueryPlanner, collect_statistics
from repro.rdf import Namespace, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store import EncodedGraph, TripleStore

EX = Namespace("http://example.org/")
NEW_VERTEX, NEW_PREDICATE = EX.term("new"), EX.term("newPredicate")

#: One op: add or remove triple number ``n`` of the universe, remove every
#: triple of predicate number ``n`` ("clear"), or remove then re-add triple ``n``.
ops = st.tuples(st.sampled_from(["+", "-", "clear", "-+"]), st.integers(0, 10_000))
#: Up to five update windows of up to eight ops each.
window_lists = st.lists(st.lists(ops, min_size=1, max_size=8), min_size=1, max_size=5)


def universe(graph):
    """Present triples, absent ones, a self-loop, and triples over a new vertex and predicate."""
    vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
    predicates = sorted(graph.predicates, key=lambda term: term.n3())
    triples = sorted(graph, key=lambda triple: triple.n3())
    triples += [Triple(vertices[0], predicate, vertex) for predicate in predicates for vertex in vertices[-3:]]
    triples += [Triple(vertices[2], predicates[0], vertices[2])]
    triples += [Triple(vertices[-1], NEW_PREDICATE, vertices[1]), Triple(NEW_VERTEX, predicates[0], vertices[3])]
    return triples, predicates + [NEW_PREDICATE]


def queries(graph, predicates):
    """Constant-predicate paths, stars and anchors, and variable-predicate patterns."""
    x, y, z, p = Variable("x"), Variable("y"), Variable("z"), Variable("p")
    anchor = sorted(graph.vertices, key=lambda vertex: vertex.n3())[0]
    first, last = predicates[0], predicates[-1]
    bgps = [[TriplePattern(x, predicate, y)] for predicate in predicates]
    bgps += [
        [TriplePattern(x, first, y), TriplePattern(y, last, z)],
        [TriplePattern(x, first, y), TriplePattern(x, predicates[1], z), TriplePattern(z, last, y)],
        [TriplePattern(anchor, first, x), TriplePattern(x, predicates[1], y)],
        [TriplePattern(x, p, y)],
        [TriplePattern(x, p, y), TriplePattern(y, first, z)],
        [TriplePattern(anchor, p, x), TriplePattern(x, last, y), TriplePattern(y, p, z)],
    ]
    return [QueryGraph(BasicGraphPattern(patterns)) for patterns in bgps]


def resolve(graph, window, triples, predicates):
    """The window as ``(op, triple)`` pairs, with each "clear" expanded over ``graph`` as it stands."""
    resolved = []
    present = set(graph)
    for op, number in window:
        if op == "clear":
            predicate = predicates[number % len(predicates)]
            gone = sorted((t for t in present if t.predicate == predicate), key=lambda t: t.n3())
            resolved += [("-", triple) for triple in gone]
            present.difference_update(gone)
            continue
        triple = triples[number % len(triples)]
        for step in ("-", "+") if op == "-+" else (op,):
            resolved.append((step, triple))
            (present.add if step == "+" else present.discard)(triple)
    return resolved


def apply_to_graph(graph, window):
    """Apply ``window`` to ``graph``; the effective ops, in order."""
    effective = []
    for op, triple in window:
        if (graph.add if op == "+" else graph.discard)(triple):
            effective.append((op, triple))
    return effective


def assert_serves_fresh_plans(planner, statistics, query_graphs):
    """Every plan ``planner`` serves equals a fresh planner's over ``statistics``."""
    fresh = QueryPlanner(statistics)
    for query in query_graphs:
        served, expected = planner.plan_for(query), fresh.plan_for(query)
        assert (served.vertex_order, served.edge_order, served.estimates, served.estimated_cost) == (
            expected.vertex_order,
            expected.edge_order,
            expected.estimates,
            expected.estimated_cost,
        ), f"stale plan served for {query.shape_key}"


def check_store(seed, windows):
    graph = random_graph(seed, num_vertices=8, num_edges=20, num_predicates=3)
    triples, predicates = universe(graph)
    query_graphs = queries(graph, predicates)
    store = TripleStore(EncodedGraph(graph))
    planner = store.enable_planner()
    assert_serves_fresh_plans(planner, collect_statistics(EncodedGraph(graph)), query_graphs)
    for window in windows:
        effective = apply_to_graph(graph, resolve(graph, window, triples, predicates))
        store.encoded.apply_ops([(op, store.encoded.dictionary.ensure_triple(triple)) for op, triple in effective])
        assert_serves_fresh_plans(planner, collect_statistics(EncodedGraph(graph)), query_graphs)


def check_cluster(seed, num_fragments, windows):
    graph = random_graph(seed, num_vertices=10, num_edges=24, num_predicates=3)
    triples, predicates = universe(graph)
    query_graphs = queries(graph, predicates)
    assignment = random_assignment(graph, seed + 5, num_fragments)
    partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
    cluster = build_cluster(partitioned)
    mirror = Mirror(partitioned)
    site_planners = [site.enable_planner() for site in cluster]
    coordinator = cluster.coordinator_planner()

    def assert_all_fresh():
        fresh = build_cluster(mirror.partitioned())
        for planner, fresh_site in zip(site_planners, fresh):
            assert_serves_fresh_plans(planner, fresh_site.graph_statistics(), query_graphs)
        assert_serves_fresh_plans(coordinator, fresh.graph_statistics(), query_graphs)

    assert_all_fresh()
    for window in windows:
        ops_window = resolve(graph, window, triples, predicates)
        apply_to_graph(graph, ops_window)
        cluster.apply_ops(ops_window)
        mirror.apply_ops(ops_window)
        assert cluster.coordinator_planner() is coordinator
        assert_all_fresh()


class TestServedPlansAreFresh:
    @given(st.integers(0, 5_000), window_lists)
    @settings(max_examples=15, deadline=None)
    def test_triple_store(self, seed, windows):
        check_store(seed, windows)

    @given(st.integers(0, 5_000), st.integers(1, 3), window_lists)
    @settings(max_examples=10, deadline=None)
    def test_cluster(self, seed, num_fragments, windows):
        check_cluster(seed, num_fragments, windows)

    def test_a_predicate_vanishes_and_comes_back(self):
        # Remove then re-add across windows and inside one; empty a label, then
        # refill it; bring in the new label (universe triple -2) and empty it again.
        windows = [
            [("-", 0), ("-", 1)],
            [("+", 0), ("+", 1)],
            [("-+", 2)],
            [("clear", 0)],
            [("+", 0), ("+", 1), ("+", 2)],
            [("+", -2), ("clear", -1)],
        ]
        for seed in range(3):
            check_store(seed, windows)
            check_cluster(seed, 2, windows)

    def test_store_emptied_and_refilled(self):
        windows = [[("clear", number)] for number in range(4)] + [[("+", number) for number in range(8)]]
        for seed in range(3):
            check_store(seed, windows)
            check_cluster(seed, 3, windows)


@pytest.mark.slow
class TestServedPlansAreFreshDeep:
    @given(st.integers(0, 50_000), window_lists)
    @settings(max_examples=150, deadline=None)
    def test_triple_store(self, seed, windows):
        check_store(seed, windows)

    @given(st.integers(0, 50_000), st.integers(1, 4), window_lists)
    @settings(max_examples=100, deadline=None)
    def test_cluster(self, seed, num_fragments, windows):
        check_cluster(seed, num_fragments, windows)
