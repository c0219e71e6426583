"""Property-based end-to-end test: distributed answers equal centralized answers.

This is the strongest property of the reproduction: for random graphs,
random connected BGP queries and random vertex-disjoint partitionings, every
optimization level of the gStoreD engine returns exactly the solutions the
centralized matcher computes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ABLATION_CONFIGS, EngineConfig, GStoreDEngine
from repro.datasets import random_assignment, random_connected_query, random_graph
from repro.distributed import build_cluster
from repro.partition import build_partitioned_graph
from repro.store import evaluate_centralized

seeds = st.integers(min_value=0, max_value=5_000)
fragment_counts = st.integers(min_value=1, max_value=4)
query_sizes = st.integers(min_value=1, max_value=4)
constant_probabilities = st.sampled_from([0.0, 0.25, 0.5])


def build_environment(seed, num_fragments, query_edges, constant_probability):
    graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
    query = random_connected_query(
        graph, seed + 101, num_edges=query_edges, constant_probability=constant_probability
    )
    assignment = random_assignment(graph, seed + 7, num_fragments)
    partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
    return graph, query, build_cluster(partitioned)


class TestDistributedEqualsCentralized:
    @given(seeds, fragment_counts, query_sizes, constant_probabilities)
    @settings(max_examples=12, deadline=None)
    def test_full_engine(self, seed, num_fragments, query_edges, constant_probability):
        graph, query, cluster = build_environment(seed, num_fragments, query_edges, constant_probability)
        expected = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        result = GStoreDEngine(cluster, EngineConfig.full()).execute(query)
        assert result.results.same_solutions(expected)
        assert len(result.results) >= 1  # the sampled subgraph itself is always a match

    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=6, deadline=None)
    def test_every_optimization_level(self, seed, num_fragments, query_edges):
        graph, query, cluster = build_environment(seed, num_fragments, query_edges, 0.25)
        expected = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        for config in ABLATION_CONFIGS:
            result = GStoreDEngine(cluster, config).execute(query)
            assert result.results.same_solutions(expected)

    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=6, deadline=None)
    def test_star_shortcut_disabled_is_still_correct(self, seed, num_fragments, query_edges):
        graph, query, cluster = build_environment(seed, num_fragments, query_edges, 0.0)
        expected = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        config = EngineConfig.full().with_options(star_shortcut=False)
        result = GStoreDEngine(cluster, config).execute(query)
        assert result.results.same_solutions(expected)


class TestAccountingInvariants:
    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=8, deadline=None)
    def test_shipment_totals_match_the_ledger(self, seed, num_fragments, query_edges):
        graph, query, cluster = build_environment(seed, num_fragments, query_edges, 0.25)
        with cluster.bus.ledger() as ledger:
            result = GStoreDEngine(cluster, EngineConfig.full()).execute(query)
        assert result.statistics.total_shipment_bytes == ledger.total_bytes
        assert result.statistics.total_time_s >= 0
