"""Property-based cross-engine equivalence for the execution runtime.

For random graphs, random connected BGP queries and random vertex-disjoint
partitionings, the gStoreD engine under the serial backend, the gStoreD
engine under the thread-pool backend, the gStoreD engine under the
process-pool backend and the centralized triple store all return *identical
sorted result sets* — not merely the same multiset, the same rows in the
same canonical order — and identical per-stage ``shipped_bytes``/``messages``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import stage_shipment_snapshot
from repro.core import GStoreDEngine
from repro.datasets import random_assignment, random_connected_query, random_graph
from repro.distributed import build_cluster
from repro.exec import ProcessPoolBackend, SerialBackend, ThreadPoolBackend
from repro.obs import Trace
from repro.partition import build_partitioned_graph
from repro.store import evaluate_centralized

seeds = st.integers(min_value=0, max_value=5_000)
fragment_counts = st.integers(min_value=1, max_value=4)
query_sizes = st.integers(min_value=1, max_value=4)
constant_probabilities = st.sampled_from([0.0, 0.25, 0.5])
worker_counts = st.sampled_from([2, 3, 8])
#: The worker counts the process-path acceptance contract names.
process_worker_counts = st.sampled_from([1, 2, 8])

SERIAL = SerialBackend()


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
    @given(seeds, fragment_counts, query_sizes, constant_probabilities, worker_counts)
    @settings(max_examples=12, deadline=None)
    def test_serial_threads_and_centralized_agree(
        self, seed, num_fragments, query_edges, constant_probability, workers
    ):
        graph, query, cluster = build_environment(
            seed, num_fragments, query_edges, constant_probability
        )
        expected = evaluate_centralized(graph, query).project(
            query.effective_projection, distinct=True
        )
        serial = GStoreDEngine(cluster, backend=SERIAL).execute(query)
        cluster.reset_network()
        with ThreadPoolBackend(workers) as backend:
            threaded = GStoreDEngine(cluster, backend=backend).execute(query)

        expected_rows = sorted_rows(expected)
        assert sorted_rows(serial.results) == expected_rows
        assert sorted_rows(threaded.results) == expected_rows
        assert serial.results.same_solutions(expected)
        assert threaded.results.same_solutions(expected)

    @given(seeds, fragment_counts, query_sizes, constant_probabilities, process_worker_counts)
    @settings(max_examples=8, deadline=None)
    def test_serial_threads_processes_and_centralized_agree(
        self, seed, num_fragments, query_edges, constant_probability, workers
    ):
        """The full acceptance chain: serial == threads == processes == centralized.

        Every leg is compared on sorted rows *and* on the per-stage
        ``(shipped_bytes, messages)`` fingerprint, for process worker counts
        1, 2 and 8.
        """
        graph, query, cluster = build_environment(
            seed, num_fragments, query_edges, constant_probability
        )
        expected = evaluate_centralized(graph, query).project(
            query.effective_projection, distinct=True
        )
        expected_rows = sorted_rows(expected)

        cluster.reset_network()
        serial = GStoreDEngine(cluster, backend=SERIAL).execute(query)
        serial_snapshot = stage_shipment_snapshot(serial)

        cluster.reset_network()
        with ThreadPoolBackend(workers) as backend:
            threaded = GStoreDEngine(cluster, backend=backend).execute(query)

        cluster.reset_network()
        with ProcessPoolBackend(max_workers=workers) as backend:
            processed = GStoreDEngine(cluster, backend=backend).execute(query)

        assert sorted_rows(serial.results) == expected_rows
        assert sorted_rows(threaded.results) == expected_rows
        assert sorted_rows(processed.results) == expected_rows
        assert processed.results.same_solutions(expected)
        assert stage_shipment_snapshot(threaded) == serial_snapshot
        assert stage_shipment_snapshot(processed) == serial_snapshot

    @given(seeds, fragment_counts, query_sizes, process_worker_counts)
    @settings(max_examples=4, deadline=None)
    def test_tracing_on_is_equivalent_to_tracing_off(
        self, seed, num_fragments, query_edges, workers
    ):
        """Tracing must never perturb execution: answers, per-stage shipment
        fingerprints and ``search_steps`` are bit-identical with a trace
        attached, across the serial, thread-pool and process-pool backends."""
        _, query, cluster = build_environment(seed, num_fragments, query_edges, 0.25)
        cluster.reset_network()
        untraced = GStoreDEngine(cluster, backend=SERIAL).execute(query)
        base_rows = sorted_rows(untraced.results)
        base_snapshot = stage_shipment_snapshot(untraced)
        base_work = dict(untraced.statistics.work)

        cluster.reset_network()
        serial_traced = GStoreDEngine(cluster, backend=SERIAL).execute(query, trace=Trace("query"))

        cluster.reset_network()
        with ThreadPoolBackend(workers) as backend:
            threaded_traced = GStoreDEngine(cluster, backend=backend).execute(
                query, trace=Trace("query")
            )

        cluster.reset_network()
        with ProcessPoolBackend(max_workers=workers) as backend:
            process_traced = GStoreDEngine(cluster, backend=backend).execute(
                query, trace=Trace("query")
            )

        for traced in (serial_traced, threaded_traced, process_traced):
            assert sorted_rows(traced.results) == base_rows
            assert stage_shipment_snapshot(traced) == base_snapshot
            assert dict(traced.statistics.work) == base_work

    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=6, deadline=None)
    def test_threaded_shipment_equals_serial_shipment(self, seed, num_fragments, query_edges):
        _, query, cluster = build_environment(seed, num_fragments, query_edges, 0.25)
        cluster.reset_network()
        serial = GStoreDEngine(cluster, backend=SERIAL).execute(query)
        serial_snapshot = stage_shipment_snapshot(serial)
        cluster.reset_network()
        with ThreadPoolBackend(4) as backend:
            threaded = GStoreDEngine(cluster, backend=backend).execute(query)
        assert stage_shipment_snapshot(threaded) == serial_snapshot
        assert threaded.statistics.total_shipment_bytes == cluster.bus.total_bytes
