"""Property-based cross-engine equivalence for the execution runtime.

For random graphs, random connected BGP queries and random vertex-disjoint
partitionings, the gStoreD engine and the centralized triple store return
*identical sorted result sets* — not merely the same multiset, the same rows
in the same canonical order — and repeated, traced and untraced runs report
identical per-stage ``shipped_bytes``/``messages``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import stage_shipment_snapshot
from repro.core import GStoreDEngine
from repro.datasets import random_assignment, random_connected_query, random_graph
from repro.distributed import build_cluster
from repro.obs import Trace
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


def sorted_rows(results):
    """Canonical sorted representation of a result set."""
    return sorted(sorted(row.items()) for row in results.to_table())


class TestCrossEngineEquivalence:
    @given(seeds, fragment_counts, query_sizes, constant_probabilities)
    @settings(max_examples=12, deadline=None)
    def test_serial_and_centralized_agree(
        self, seed, num_fragments, query_edges, constant_probability
    ):
        graph, query, cluster = build_environment(
            seed, num_fragments, query_edges, constant_probability
        )
        expected = evaluate_centralized(graph, query).project(
            query.effective_projection, distinct=True
        )
        serial = GStoreDEngine(cluster).execute(query)
        assert sorted_rows(serial.results) == sorted_rows(expected)
        assert serial.results.same_solutions(expected)

    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=4, deadline=None)
    def test_tracing_on_is_equivalent_to_tracing_off(self, seed, num_fragments, query_edges):
        """Tracing must never perturb execution: answers, per-stage shipment
        fingerprints and ``search_steps`` are bit-identical with a trace
        attached."""
        _, query, cluster = build_environment(seed, num_fragments, query_edges, 0.25)
        untraced = GStoreDEngine(cluster).execute(query)
        traced = GStoreDEngine(cluster).execute(query, trace=Trace("query"))
        assert sorted_rows(traced.results) == sorted_rows(untraced.results)
        assert stage_shipment_snapshot(traced) == stage_shipment_snapshot(untraced)
        assert dict(traced.statistics.work) == dict(untraced.statistics.work)

    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=6, deadline=None)
    def test_repeated_shipment_equals_the_ledger_total(self, seed, num_fragments, query_edges):
        _, query, cluster = build_environment(seed, num_fragments, query_edges, 0.25)
        first = GStoreDEngine(cluster).execute(query)
        with cluster.bus.ledger() as ledger:
            again = GStoreDEngine(cluster).execute(query)
        assert stage_shipment_snapshot(again) == stage_shipment_snapshot(first)
        assert again.statistics.total_shipment_bytes == ledger.total_bytes
