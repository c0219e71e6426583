"""Every statistics view reads the columns an update window left behind.

A site's planner statistics and the coordinator planner's are views over the
site encodings, which :meth:`~repro.distributed.Cluster.apply_ops` patches;
nothing else is patched or re-summed.  After random windows — additions,
removals, a triple removed and re-added, a predicate emptied and refilled,
a new predicate and a new vertex — every site's statistics and the
coordinator's must equal, value for value, those of a cluster built fresh
from the triples and homes the test follows itself (:class:`mirror.Mirror`),
and the coordinator planner must still hold the one view it was built with.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror import Mirror, statistics_values
from test_property_plan_keys import apply_to_graph, resolve, universe, window_lists

from repro.datasets import random_assignment, random_graph
from repro.distributed import build_cluster
from repro.partition import build_partitioned_graph


def check_coordinator(seed, num_fragments, windows):
    graph = random_graph(seed, num_vertices=10, num_edges=24, num_predicates=3)
    triples, predicates = universe(graph)
    assignment = random_assignment(graph, seed + 5, num_fragments)
    partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
    cluster = build_cluster(partitioned)
    mirror = Mirror(partitioned)
    statistics = cluster.coordinator_planner().statistics
    for window in windows:
        ops = resolve(graph, window, triples, predicates)
        apply_to_graph(graph, ops)
        cluster.apply_ops(ops)
        mirror.apply_ops(ops)
        assert cluster.coordinator_planner().statistics is statistics
        fresh = build_cluster(mirror.partitioned())
        terms = [cluster.dictionary.term_of(term_id) for term_id in range(len(cluster.dictionary))]
        assert statistics_values(statistics, terms) == statistics_values(fresh.coordinator_planner().statistics, terms)
        for site, fresh_site in zip(cluster, fresh):
            assert statistics_values(site.graph_statistics(), terms) == statistics_values(
                fresh_site.graph_statistics(), terms
            )
        assert statistics.num_triples == sum(site.encoded.num_triples for site in cluster)


class TestTheCoordinatorView:
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
class TestTheCoordinatorViewDeep:
    @given(st.integers(0, 50_000), st.integers(1, 6), window_lists)
    @settings(max_examples=200, deadline=None)
    def test_random_windows(self, seed, num_fragments, windows):
        check_coordinator(seed, num_fragments, windows)
