"""Property-based tests: planner orders never change query answers.

The planner's whole contract is that it only reorders the search.  These
tests drive random graphs, random connected queries and random
partitionings through (a) the centralized matcher and (b) the distributed
engine, with and without the planner, and require identical result sets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, GStoreDEngine
from repro.datasets import random_assignment, random_connected_query, random_graph
from repro.distributed import build_cluster
from repro.partition import build_partitioned_graph
from repro.planner import PlanOptimizer, QueryPlanner, collect_statistics, shape_key
from repro.sparql import QueryGraph
from repro.store import LocalMatcher
from repro.store.encoding import EncodedGraph

seeds = st.integers(min_value=0, max_value=5_000)
fragment_counts = st.integers(min_value=1, max_value=4)
query_sizes = st.integers(min_value=1, max_value=4)
constant_probabilities = st.sampled_from([0.0, 0.25, 0.5])


class TestPlannerEquivalence:
    @given(seeds, query_sizes, constant_probabilities)
    @settings(max_examples=20, deadline=None)
    def test_centralized_matcher_same_solutions(self, seed, query_edges, constant_probability):
        graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
        query = random_connected_query(
            graph, seed + 31, num_edges=query_edges, constant_probability=constant_probability
        )
        static = LocalMatcher(EncodedGraph(graph))
        planned = LocalMatcher(EncodedGraph(graph), planner=QueryPlanner.from_graph(EncodedGraph(graph)))
        assert planned.evaluate(query).same_solutions(static.evaluate(query))

    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=10, deadline=None)
    def test_distributed_engine_same_solutions(self, seed, num_fragments, query_edges):
        graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
        query = random_connected_query(graph, seed + 101, num_edges=query_edges, constant_probability=0.25)
        assignment = random_assignment(graph, seed + 7, num_fragments)
        partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
        cluster = build_cluster(partitioned)
        expected = GStoreDEngine(
            cluster, EngineConfig.full().with_options(use_planner=False)
        ).execute(query)
        actual = GStoreDEngine(cluster, EngineConfig.full()).execute(query)
        assert actual.results.same_solutions(expected.results)


class TestPlanInvariants:
    @given(seeds, query_sizes)
    @settings(max_examples=20, deadline=None)
    def test_plan_is_always_a_permutation(self, seed, query_edges):
        graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
        query = random_connected_query(graph, seed + 13, num_edges=query_edges, constant_probability=0.3)
        query_graph = QueryGraph(query.bgp)
        plan = PlanOptimizer(collect_statistics(EncodedGraph(graph))).plan(query_graph)
        assert sorted(plan.vertex_order) == list(range(query_graph.num_vertices))
        assert sorted(plan.edge_order) == list(range(query_graph.num_edges))

    @given(seeds, query_sizes)
    @settings(max_examples=20, deadline=None)
    def test_shape_key_stable_under_replanning(self, seed, query_edges):
        graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
        query = random_connected_query(graph, seed + 13, num_edges=query_edges, constant_probability=0.3)
        query_graph = QueryGraph(query.bgp)
        assert shape_key(query_graph) == shape_key(QueryGraph(query.bgp))
