"""Exact O(delta) maintenance of a site's structures across cluster updates.

``Site.apply`` patches the site's encoding, fragment and fragment index in
place with each window (the statistics read the patched columns): vertex homes are sticky, so only a
window's triples and their endpoints can change class.  Random op sequences
are driven through ``Cluster.apply`` / ``Cluster.apply_ops`` on the
adversarial partitionings of ``tests/core/test_partial_eval_differential.py``
(every edge crossing, a single site, fragments that own nothing, two
fragments over a dense graph); after every window each site must still hold
the encoding, index and statistics objects it had — no rebuild — with
``internal`` / ``extended`` / ``crossing`` / ``crossing_by_predicate`` equal
to a fresh ``FragmentIndex`` and to the Definition 1 sets of a partitioning
built from scratch over the triples and homes the test follows itself
(:class:`mirror.Mirror`), and statistics equal, value for value, to those of
a fresh encoding of that fragment.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror import Mirror, statistics_values
from repro.datasets import random_assignment, random_graph
from repro.distributed import build_cluster
from repro.partition import build_partitioned_graph
from repro.planner import collect_statistics
from repro.rdf import Namespace, Triple
from repro.store.encoding import EncodedGraph
from repro.store.fragment_index import FragmentIndex

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

#: Up to five update windows of up to eight ``(op, triple number)`` pairs each.
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


def site_objects(cluster):
    """What each site must keep across updates: its encoding, index and statistics."""
    return {site.site_id: (site.encoded, site.graph, site.graph_statistics()) for site in cluster}


def assert_patched_exactly(cluster, objects, mirror):
    expected_partitioning = mirror.partitioned()
    assert cluster.partitioned_graph.assignment == mirror.homes
    for site in cluster:
        encoded, index, statistics = objects[site.site_id]
        assert site.encoded is encoded, "an update rebuilt the encoding instead of patching it"
        assert site.graph is index is site.fragment, "an update rebuilt the index instead of patching it"
        assert index.encoded is encoded and site.store.encoded is encoded
        dictionary = index.encoded.dictionary
        assert dictionary is cluster.dictionary
        expected = expected_partitioning.fragment(site.site_id)
        # The cold side: a fresh encoding and index of the expected fragment over the same dictionary.
        home = {dictionary.id_of(vertex): fragment_id for vertex, fragment_id in mirror.homes.items()}
        cold = FragmentIndex(site.site_id, EncodedGraph(expected.all_edges, dictionary), home)
        assert state(index) == state(cold)
        assert list(encoded.iter_triple_ids()) == list(cold.encoded.iter_triple_ids())
        assert list(index.crossing) == sorted(index.crossing)
        assert dictionary.decode_ids(index.internal) == expected.internal_vertices
        assert dictionary.decode_ids(index.extended) == expected.extended_vertices
        term_of = dictionary.term_of
        assert {Triple(*map(term_of, ids)) for ids in index.crossing} == expected.crossing_edges
        assert index.decoded() == expected
        assert site.graph_statistics() is statistics, "an update replaced the statistics view"
        terms = [dictionary.term_of(term_id) for term_id in range(len(dictionary))]
        assert statistics_values(statistics, terms) == statistics_values(collect_statistics(cold.encoded), terms)


def check_windows(graph, assignment, num_fragments, windows):
    """Apply ``windows`` (lists of ``(op, triple)``) to a cluster and compare after each one."""
    partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
    cluster = build_cluster(partitioned)
    mirror = Mirror(partitioned)
    objects = site_objects(cluster)
    assert_patched_exactly(cluster, objects, mirror)
    for number, window in enumerate(windows):
        if number % 2:
            cluster.apply_ops(window)  # ordered: a triple may come and go inside one window
            mirror.apply_ops(window)
        else:
            delta = dict(
                add=[triple for op, triple in window if op == "+"],
                remove=[triple for op, triple in window if op == "-"],
            )
            cluster.apply(**delta)
            mirror.apply(**delta)
        assert_patched_exactly(cluster, objects, mirror)


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
