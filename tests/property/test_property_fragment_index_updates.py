"""Exact O(delta) maintenance of the per-fragment id index across cluster updates.

``fragment_index`` patches its cached index from the site graph's journal
window: vertex homes are sticky, so only a window's triples and their
endpoints can change class.  Random op sequences are driven through
``Cluster.apply`` / ``Cluster.apply_ops`` on the adversarial partitionings of
``tests/core/test_partial_eval_differential.py`` (every edge crossing, a
single site, fragments that own nothing, two fragments over a dense graph);
after every window each site must still serve the index object it had —
no rebuild — with ``internal`` / ``extended`` / ``crossing`` /
``crossing_by_predicate`` equal to a fresh ``FragmentIndex``, and to the
Definition 1 sets of a partitioning built from scratch over the mutated
graph.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import random_assignment, random_graph
from repro.distributed import build_cluster
from repro.partition import build_partitioned_graph
from repro.rdf import Namespace, Triple
from repro.store.encoding import encoded_view
from repro.store.fragment_index import FragmentIndex, fragment_index

EX = Namespace("http://example.org/")
NEW_VERTICES = [EX.term("new0"), EX.term("new1")]
NEW_PREDICATE = EX.term("newPredicate")


def every_edge_crossing(graph, seed):
    vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
    return {vertex: position for position, vertex in enumerate(vertices)}, len(vertices)


def single_site(graph, seed):
    return {vertex: 0 for vertex in graph.vertices}, 1


def empty_fragments(graph, seed):
    assignment = random_assignment(graph, seed + 5, 2)
    return {vertex: 1 + 2 * fragment for vertex, fragment in assignment.items()}, 5


def two_fragments(graph, seed):
    return random_assignment(graph, seed + 5, 2), 2


PARTITIONINGS = [every_edge_crossing, single_site, empty_fragments, two_fragments]

#: Up to five journal windows of up to eight ``(op, triple number)`` pairs each.
window_lists = st.lists(
    st.lists(st.tuples(st.sampled_from("+-"), st.integers(0, 10_000)), min_size=1, max_size=8),
    min_size=1,
    max_size=5,
)


def universe(graph):
    """The triples a window may add or remove: present ones, absent ones, ones over new terms."""
    vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
    predicates = sorted({triple.predicate for triple in graph}, key=lambda term: term.n3())
    triples = sorted(graph, key=lambda triple: triple.n3())
    triples += [Triple(vertices[0], predicate, vertex) for predicate in predicates for vertex in vertices[-3:]]
    triples += [Triple(vertices[-1], NEW_PREDICATE, vertices[1]), Triple(vertices[2], predicates[0], vertices[2])]
    triples += [Triple(vertices[1], NEW_PREDICATE, NEW_VERTICES[0]), Triple(NEW_VERTICES[0], predicates[0], vertices[3])]
    triples += [Triple(NEW_VERTICES[0], predicates[0], NEW_VERTICES[1]), Triple(NEW_VERTICES[1], predicates[0], vertices[0])]
    return triples


def state(index):
    return (index.internal, index.extended, index.crossing, index.crossing_by_predicate)


def assert_patched_exactly(cluster, indexes):
    partitioned = cluster.partitioned_graph
    scratch = build_partitioned_graph(
        partitioned.graph.copy(),
        {vertex: home for vertex, home in partitioned.assignment.items() if vertex in partitioned.graph.vertices},
        num_fragments=partitioned.num_fragments,
    )
    for site in cluster:
        index = fragment_index(site.fragment, site.graph)
        assert index is indexes[site.site_id], "an update rebuilt the index instead of patching it"
        assert index.encoded is encoded_view(site.graph)
        assert state(index) == state(FragmentIndex(site.fragment, index.encoded))
        assert list(index.crossing) == sorted(index.crossing)
        dictionary = index.encoded.dictionary
        expected = scratch.fragment(site.site_id)
        assert dictionary.decode_ids(index.internal) == expected.internal_vertices
        assert dictionary.decode_ids(index.extended) == expected.extended_vertices
        term_of = dictionary.term_of
        assert {Triple(*map(term_of, ids)) for ids in index.crossing} == expected.crossing_edges


def check_windows(graph, assignment, num_fragments, windows):
    """Apply ``windows`` (lists of ``(op, triple)``) to a cluster and compare after each one."""
    cluster = build_cluster(build_partitioned_graph(graph, assignment, num_fragments=num_fragments))
    indexes = {site.site_id: fragment_index(site.fragment, site.graph) for site in cluster}
    assert_patched_exactly(cluster, indexes)
    for number, window in enumerate(windows):
        if number % 2:
            cluster.apply_ops(window)  # ordered: a triple may come and go inside one window
        else:
            cluster.apply(
                add=[triple for op, triple in window if op == "+"],
                remove=[triple for op, triple in window if op == "-"],
            )
        assert_patched_exactly(cluster, indexes)


@pytest.mark.parametrize("partitioning", PARTITIONINGS)
@given(st.integers(0, 5_000), window_lists)
@settings(max_examples=15, deadline=None)
def test_random_interleavings_equal_a_fresh_index(partitioning, seed, windows):
    graph = random_graph(seed, num_vertices=10, num_edges=20, num_predicates=3)
    assignment, num_fragments = partitioning(graph, seed)
    triples = universe(graph)
    resolved = [[(op, triples[number % len(triples)]) for op, number in window] for window in windows]
    check_windows(graph, assignment, num_fragments, resolved)


@pytest.mark.parametrize("partitioning", PARTITIONINGS)
def test_named_windows_equal_a_fresh_index(partitioning):
    graph = random_graph(3, num_vertices=10, num_edges=20, num_predicates=3)
    assignment, num_fragments = partitioning(graph, 3)
    triples = sorted(graph, key=lambda triple: triple.n3())
    vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
    leaf = min(vertices, key=lambda vertex: (graph.degree(vertex), vertex.n3()))
    leaf_edges = sorted(set(graph.triples(subject=leaf)) | set(graph.triples(object=leaf)), key=Triple.n3)
    hub = max(vertices, key=lambda vertex: (graph.degree(vertex), vertex.n3()))
    hub_edges = sorted(set(graph.triples(subject=hub)) | set(graph.triples(object=hub)), key=Triple.n3)
    newcomer = Triple(vertices[0], NEW_PREDICATE, NEW_VERTICES[0])
    windows = [
        [("-", edge) for edge in leaf_edges],  # a vertex loses its last edge ...
        [("+", leaf_edges[0])],  # ... and comes back
        [("-", triples[0]), ("+", triples[0])],  # apply(): removed and re-added in one window
        [("+", newcomer), ("-", newcomer), ("+", newcomer)],  # apply_ops(): comes, goes, comes
        [("-", edge) for edge in hub_edges],  # a hub loses every edge
        [("+", edge) for edge in hub_edges] + [("-", newcomer)],  # the last edge of a label goes
        [("+", Triple(NEW_VERTICES[0], triples[0].predicate, NEW_VERTICES[1]))],  # brand-new terms only
    ]
    check_windows(graph, assignment, num_fragments, windows)
