"""Property-based equivalence: the matching kernel vs its two oracles.

The dictionary-encoding PR swapped the matching kernel under every engine;
the sorted-column kernel then replaced its hash-set loops.  This suite runs
two references against the production ``python`` kernel:

* the *pre-encoding* object path — the seed's ``LocalMatcher`` search and
  candidate computation over ``Node``/``Triple`` objects, vertex signature
  prefilter included, preserved in ``benchmarks/kernel_reference.py`` (shared with the kernel benchmark so
  the property suite and the bench validate against the same baseline), and
* the set-based kernel the sorted columns replaced, preserved in
  ``tests/store/reference_set_kernel.py``,

and asserts, on random graphs and queries, that the kernel produces

* the identical *sequence* of match assignments (not just the same set),
* the identical ``search_steps`` work counter — also after graph mutations
  (incremental adjacency patching), and
* identical result rows and per-stage shipment fingerprints when the kernel
  runs under the distributed engine.
"""

import sys
from contextlib import nullcontext
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "store"))
from kernel_reference import ReferenceObjectMatcher, node_signatures, reference_candidates
from reference_set_kernel import KERNEL_SETS, SetMatcher, set_candidate_ids, set_runner_everywhere

from repro.bench import stage_shipment_snapshot
from repro.core import GStoreDEngine
from repro.datasets import random_assignment, random_connected_query, random_graph
from repro.distributed import build_cluster
from repro.partition import build_partitioned_graph
from repro.sparql.query_graph import QueryGraph
from repro.store import KERNEL_PYTHON, LocalMatcher, compute_candidates, evaluate_centralized
from repro.store.candidates import compute_candidate_ids
from repro.store.encoding import encoded_view

seeds = st.integers(min_value=0, max_value=5_000)
fragment_counts = st.integers(min_value=1, max_value=4)
query_sizes = st.integers(min_value=1, max_value=4)
constant_probabilities = st.sampled_from([0.0, 0.25, 0.5])


#: The set-based oracle and the production kernel, by kernel name.
MATCHERS = {KERNEL_SETS: SetMatcher, KERNEL_PYTHON: LocalMatcher}
#: How to run every in-process matcher of an engine on each of them.
ENGINE_KERNELS = {KERNEL_SETS: set_runner_everywhere, KERNEL_PYTHON: nullcontext}


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
def sorted_rows(results):
    """Canonical sorted representation of a result set."""
    return sorted(sorted(row.items()) for row in results.to_table())


class TestKernelEquivalence:
    @given(seeds, query_sizes, constant_probabilities)
    @settings(max_examples=40, deadline=None)
    def test_encoded_kernel_replays_the_object_path_exactly(
        self, seed, query_edges, constant_probability
    ):
        """Same match sequence, same search_steps, on random graphs/queries."""
        graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
        query = random_connected_query(
            graph, seed + 101, num_edges=query_edges, constant_probability=constant_probability
        )
        query_graph = QueryGraph.from_query(query)
        reference = ReferenceObjectMatcher(graph)
        encoded = LocalMatcher(graph)
        reference_matches = list(reference.find_matches(query_graph))
        encoded_matches = list(encoded.find_matches(query_graph))
        assert encoded_matches == reference_matches
        assert encoded.search_steps == reference.search_steps

    @given(seeds, query_sizes)
    @settings(max_examples=15, deadline=None)
    def test_candidate_pools_match_the_object_path(self, seed, query_edges):
        graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
        query = random_connected_query(graph, seed + 11, num_edges=query_edges)
        query_graph = QueryGraph.from_query(query)
        assert compute_candidates(graph, query_graph) == reference_candidates(
            graph, query_graph, node_signatures(graph)
        )
        encoded = encoded_view(graph)
        assert compute_candidate_ids(encoded, query_graph) == set_candidate_ids(encoded, query_graph)

    @given(seeds, fragment_counts, query_sizes, constant_probabilities)
    @settings(max_examples=10, deadline=None)
    def test_distributed_rows_match_centralized(
        self, seed, num_fragments, query_edges, constant_probability
    ):
        """The kernel swap is invisible to the engines: the distributed rows
        equal the centralized ones."""
        graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
        query = random_connected_query(
            graph, seed + 101, num_edges=query_edges, constant_probability=constant_probability
        )
        assignment = random_assignment(graph, seed + 7, num_fragments)
        partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
        cluster = build_cluster(partitioned)

        expected = evaluate_centralized(graph, query).project(
            query.effective_projection, distinct=True
        )
        expected_rows = sorted_rows(expected)

        cluster.reset_network()
        serial = GStoreDEngine(cluster).execute(query)
        assert sorted_rows(serial.results) == expected_rows


class TestKernelMatrixEquivalence:
    """sets == python == the object path, always."""

    @given(seeds, query_sizes, constant_probabilities)
    @settings(max_examples=25, deadline=None)
    def test_every_kernel_replays_the_object_path_exactly(
        self, seed, query_edges, constant_probability
    ):
        graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
        query = random_connected_query(
            graph, seed + 101, num_edges=query_edges, constant_probability=constant_probability
        )
        query_graph = QueryGraph.from_query(query)
        reference = ReferenceObjectMatcher(graph)
        reference_matches = list(reference.find_matches(query_graph))
        for kernel, matcher_class in MATCHERS.items():
            matcher = matcher_class(graph)
            assert list(matcher.find_matches(query_graph)) == reference_matches, kernel
            assert matcher.search_steps == reference.search_steps, kernel
            assert matcher.last_kernel == kernel

    @given(seeds, query_sizes)
    @settings(max_examples=15, deadline=None)
    def test_mutation_then_query_keeps_kernels_in_lockstep(self, seed, query_edges):
        """Incremental adjacency patching is exact: after additions and a
        removal, every warm matcher agrees with a cold matcher over a copy
        of the mutated graph — and all kernels agree with each other."""
        graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
        query = random_connected_query(graph, seed + 101, num_edges=query_edges)
        query_graph = QueryGraph.from_query(query)
        matchers = {kernel: matcher_class(graph) for kernel, matcher_class in MATCHERS.items()}
        for matcher in matchers.values():  # warm the adjacency caches
            list(matcher.find_matches(query_graph))

        extra = random_graph(seed + 1, num_vertices=16, num_edges=8, num_predicates=3)
        graph.add_all(extra)
        graph.discard(next(iter(graph)))

        reference = ReferenceObjectMatcher(graph)
        expected = list(reference.find_matches(query_graph))
        cold = SetMatcher(graph.copy())
        cold_matches = list(cold.find_matches(query_graph))
        assert cold_matches == expected
        for kernel, matcher in matchers.items():
            assert list(matcher.find_matches(query_graph)) == expected, kernel
            assert matcher.search_steps == reference.search_steps, kernel


class TestDistributedKernelParity:
    """The set oracle and the kernel are indistinguishable to the engines."""

    @given(seeds, fragment_counts, query_sizes)
    @settings(max_examples=8, deadline=None)
    def test_kernels_are_invisible_to_the_engine(self, seed, num_fragments, query_edges):
        """Every kernel reproduces the reference rows and per-stage shipment
        fingerprints."""
        graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
        query = random_connected_query(graph, seed + 101, num_edges=query_edges)
        assignment = random_assignment(graph, seed + 7, num_fragments)
        partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
        cluster = build_cluster(partitioned)

        cluster.reset_network()
        reference = GStoreDEngine(cluster).execute(query)
        reference_rows = sorted_rows(reference.results)
        reference_snapshot = stage_shipment_snapshot(reference)

        for kernel, running_on in ENGINE_KERNELS.items():
            with running_on():
                cluster.reset_network()
                outcome = GStoreDEngine(cluster).execute(query)
            assert sorted_rows(outcome.results) == reference_rows, kernel
            assert stage_shipment_snapshot(outcome) == reference_snapshot, kernel
