"""The coordinator's statistics stay the merge of the sites' after every update window.

:meth:`~repro.distributed.Cluster.apply_ops` does not re-merge every site's
statistics: it re-sums the window's predicates and the triple and vertex
totals over the sites, in place.  After random windows — additions,
removals, a triple removed and re-added, a predicate emptied and refilled,
a new predicate and a new vertex — the coordinator planner's statistics
must equal :func:`~repro.planner.merge_statistics` of the sites' own, which
must equal statistics collected afresh from each site's encoding, and the
planner must still hold the one statistics object it was built with.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_property_plan_keys import apply_to_graph, resolve, universe, window_lists

from repro.datasets import random_assignment, random_graph
from repro.distributed import build_cluster
from repro.partition import build_partitioned_graph
from repro.planner import collect_statistics, merge_statistics


def check_coordinator(seed, num_fragments, windows):
    graph = random_graph(seed, num_vertices=10, num_edges=24, num_predicates=3)
    triples, predicates = universe(graph)
    assignment = random_assignment(graph, seed + 5, num_fragments)
    cluster = build_cluster(build_partitioned_graph(graph, assignment, num_fragments=num_fragments))
    statistics = cluster.coordinator_planner().statistics
    for window in windows:
        ops = resolve(graph, window, triples, predicates)
        apply_to_graph(graph, ops)
        cluster.apply_ops(ops)
        assert cluster.coordinator_planner().statistics is statistics
        assert statistics == merge_statistics(site.graph_statistics() for site in cluster)
        assert statistics == merge_statistics(collect_statistics(site.encoded) for site in cluster)
        assert statistics.num_triples == sum(site.encoded.num_triples for site in cluster)


class TestTheCoordinatorPatch:
    @given(st.integers(0, 5_000), st.integers(1, 4), window_lists)
    @settings(max_examples=25, deadline=None)
    def test_random_windows(self, seed, num_fragments, windows):
        check_coordinator(seed, num_fragments, windows)

    def test_a_predicate_vanishes_and_comes_back(self):
        windows = [
            [("clear", 0)],
            [("+", 0), ("+", 1), ("+", 2)],
            [("-+", 3)],
            [("+", -2), ("+", -1)],
            [("clear", -1), ("clear", 1)],
        ]
        for seed in range(3):
            check_coordinator(seed, 3, windows)


@pytest.mark.slow
class TestTheCoordinatorPatchDeep:
    @given(st.integers(0, 50_000), st.integers(1, 6), window_lists)
    @settings(max_examples=200, deadline=None)
    def test_random_windows(self, seed, num_fragments, windows):
        check_coordinator(seed, num_fragments, windows)
