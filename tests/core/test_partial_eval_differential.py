"""The integer, canonical-seed partial evaluator vs the object-level oracle.

``tests/core/reference_partial_eval.py`` is the evaluator that shipped until
the rewrite (every LPM re-found from every crossing edge it contains, copies
dropped on a ``frozenset`` key).  For every fragment of every setting below
the new evaluator must return

* the same *set* of local partial matches, and
* each of them exactly once (``len(lpms) == len(set(lpms))``): the new
  enumerator keeps no ``seen`` set, so a duplicate emission would show here,

with and without the stage-1 candidate filter and with and without a planner
edge order, on hash partitionings of the three benchmark datasets, on the
paper's example, and on adversarial partitionings (every edge crossing, a
single site, fragments that own nothing, one fragment overlapping a match in
disconnected regions).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from reference_partial_eval import PartialEvaluator as ReferenceEvaluator

from repro.core.candidate_exchange import build_site_vectors, union_site_vectors
from repro.core.partial_eval import PartialEvaluator
from repro.core.partial_match import check_local_partial_match
from repro.datasets import (
    build_example_partitioning,
    example_query,
    get_dataset,
    random_assignment,
    random_connected_query,
    random_graph,
)
from repro.distributed import build_cluster
from repro.partition import HashPartitioner, build_partitioned_graph
from repro.rdf import Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph

#: dataset -> the non-star queries the end-to-end ``multijoin`` workload runs.
BENCHMARK_QUERIES = {
    "LUBM": ("LQ1", "LQ3", "LQ6", "LQ7"),
    "YAGO2": ("YQ1", "YQ2", "YQ3", "YQ4"),
    "BTC": ("BQ4", "BQ5", "BQ6", "BQ7"),
}


def candidate_filter_for(cluster, query_graph, bits=4096):
    """The global filter stage 1 would broadcast for ``query_graph``."""
    vectors = [build_site_vectors(site.internal_candidates(query_graph), bits) for site in cluster]
    return union_site_vectors(vectors, bits)


def edge_orders(query_graph):
    """No planner order, and two that rank the edges differently from the BGP."""
    indexes = list(range(query_graph.num_edges))
    return [None, indexes[::-1], indexes[1:] + indexes[:1]]


def assert_same_lpms(fragment, graph, query_graph, candidate_filter, edge_order, paranoid_reference=False):
    new = PartialEvaluator(fragment, graph=graph, edge_order=edge_order).evaluate(
        query_graph, candidate_filter=candidate_filter
    )
    reference = ReferenceEvaluator(
        fragment, graph=graph, edge_order=edge_order, paranoid=paranoid_reference
    ).evaluate(query_graph, candidate_filter=candidate_filter)
    lpms = new.local_partial_matches
    assert len(lpms) == len(set(lpms)), "an LPM was emitted twice"
    assert set(lpms) == set(reference.local_partial_matches)
    assert new.seeds_explored == reference.seeds_explored
    assert new.branches_pruned_by_filter <= reference.branches_pruned_by_filter
    return lpms


def assert_cluster_agrees(partitioned, query_graph):
    cluster = build_cluster(partitioned)
    total = 0
    for candidate_filter in (None, candidate_filter_for(cluster, query_graph)):
        for edge_order in edge_orders(query_graph):
            for site in cluster:
                total += len(
                    assert_same_lpms(site.fragment, site.graph, query_graph, candidate_filter, edge_order)
                )
    return total


@pytest.fixture(scope="module")
def hash_partitioned():
    return {
        name: HashPartitioner(4).partition(get_dataset(name).generate())
        for name in BENCHMARK_QUERIES
    }


@pytest.mark.parametrize(
    "dataset, query_name",
    [(dataset, name) for dataset, names in BENCHMARK_QUERIES.items() for name in names],
)
def test_benchmark_queries_on_hash_partitioning(hash_partitioned, dataset, query_name):
    query_graph = QueryGraph(get_dataset(dataset).queries()[query_name].bgp)
    assert_cluster_agrees(hash_partitioned[dataset], query_graph)


def test_paper_example():
    assert assert_cluster_agrees(build_example_partitioning(), QueryGraph(example_query().bgp)) > 0


# ----------------------------------------------------------------------
# Adversarial partitionings (the ones tests/property/test_property_joins.py uses)
# ----------------------------------------------------------------------
def every_edge_crossing(graph, seed):
    vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
    return {vertex: position for position, vertex in enumerate(vertices)}, len(vertices)


def single_site(graph, seed):
    return {vertex: 0 for vertex in graph.vertices}, 1


def empty_fragments(graph, seed):
    assignment = random_assignment(graph, seed + 5, 2)
    return {vertex: 1 + 2 * fragment for vertex, fragment in assignment.items()}, 5


def two_fragments(graph, seed):
    # Few fragments over a dense graph: paths keep re-entering the fragment
    # they left, so one fragment holds several disconnected internal regions.
    return random_assignment(graph, seed + 5, 2), 2


@pytest.mark.parametrize("partitioning", [every_edge_crossing, single_site, empty_fragments, two_fragments])
@pytest.mark.parametrize("seed", range(6))
def test_adversarial_partitionings(partitioning, seed):
    graph = random_graph(seed, num_vertices=14, num_edges=30, num_predicates=3)
    query = random_connected_query(graph, seed + 17, num_edges=2 + seed % 3, constant_probability=0.25)
    assignment, num_fragments = partitioning(graph, seed)
    partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
    total = assert_cluster_agrees(partitioned, QueryGraph(query.bgp))
    if partitioning is single_site:
        assert total == 0


# ----------------------------------------------------------------------
# Hand-built queries
# ----------------------------------------------------------------------
EX = Namespace("http://example.org/")
A, B, C, D, E, F = (EX.term(name) for name in "abcdef")
P, Q = EX.term("p"), EX.term("q")
X, Y, Z = (Variable(name) for name in "xyz")


def hand_built_setting():
    """a,b | c,d,e,f with parallel, looping and two-label edges across the cut; f touches only e."""
    graph = RDFGraph(
        [
            Triple(A, P, B), Triple(A, P, C), Triple(A, Q, C), Triple(B, Q, C), Triple(C, P, D),
            Triple(D, Q, A), Triple(C, P, C), Triple(B, P, B), Triple(D, P, E), Triple(E, Q, B),
            Triple(E, P, F),
        ]
    )  # fmt: skip
    return build_partitioned_graph(graph, {A: 0, B: 0, C: 1, D: 1, E: 1, F: 1}, num_fragments=2)


def check_hand_built(patterns, paranoid_reference=False):
    partitioned = hand_built_setting()
    query_graph = QueryGraph(BasicGraphPattern(patterns))
    found = []
    for fragment in partitioned:
        graph = fragment.to_graph()
        for edge_order in edge_orders(query_graph):
            lpms = assert_same_lpms(
                fragment, graph, query_graph, None, edge_order, paranoid_reference=paranoid_reference
            )
            for lpm in lpms:
                assert check_local_partial_match(lpm, query_graph, fragment) == []
            found.append(lpms)
    return found


def test_variable_predicate():
    found = check_hand_built([TriplePattern(X, Variable("label"), Y), TriplePattern(Y, P, Z)])
    assert all(found)


def test_constant_endpoint_absent_from_the_fragment():
    # ex:f is stored by fragment 1 only; ex:nowhere is in no fragment at all.
    check_hand_built([TriplePattern(X, P, F), TriplePattern(Y, Q, X)])
    nowhere = EX.term("nowhere")
    found = check_hand_built([TriplePattern(X, P, nowhere), TriplePattern(X, Q, Y)])
    # ?x can only be extended: an internal ?x would force the edge to ex:nowhere.
    assert all(lpm.value_of(nowhere) is None for lpms in found for lpm in lpms)
    assert all(bin(lpm.internal_mask).count("1") == 1 for lpms in found for lpm in lpms)


def test_predicate_absent_from_the_fragment():
    found = check_hand_built([TriplePattern(X, EX.term("unused"), Y), TriplePattern(Y, P, Z)])
    # Only with ?y extended, which leaves the unmatchable edge #0 unforced.
    assert all(0 not in lpm.edge_mapping() for lpms in found for lpm in lpms)


def test_parallel_query_edges():
    found = check_hand_built([TriplePattern(X, P, Y), TriplePattern(X, Q, Y), TriplePattern(Y, P, Z)])
    assert any(found)


def test_self_loop_query_edge():
    # The oracle overwrites a self-loop's endpoint when it seeds one from a
    # crossing edge (see its docstring); its paranoid mode drops those.
    found = check_hand_built(
        [TriplePattern(X, P, X), TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)], paranoid_reference=True
    )
    assert any(found)
