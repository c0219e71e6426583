"""Unit tests for fragments and the distributed RDF graph (Definition 1)."""

import pytest

from repro.partition import PartitionedGraph, PartitioningError, build_partitioned_graph
from repro.rdf import Namespace, RDFGraph, Triple

EX = Namespace("http://example.org/")
A, B, C, D = EX.term("a"), EX.term("b"), EX.term("c"), EX.term("d")
P = EX.term("p")


def chain_graph() -> RDFGraph:
    """a -> b -> c -> d."""
    return RDFGraph([Triple(A, P, B), Triple(B, P, C), Triple(C, P, D)])


def two_fragment_partitioning() -> PartitionedGraph:
    """{a, b} on fragment 0, {c, d} on fragment 1."""
    return build_partitioned_graph(chain_graph(), {A: 0, B: 0, C: 1, D: 1}, num_fragments=2)


class TestFragmentConstruction:
    def test_internal_vertices_follow_assignment(self):
        partitioned = two_fragment_partitioning()
        assert partitioned.fragment(0).internal_vertices == {A, B}
        assert partitioned.fragment(1).internal_vertices == {C, D}

    def test_internal_edges(self):
        partitioned = two_fragment_partitioning()
        assert partitioned.fragment(0).internal_edges == {Triple(A, P, B)}
        assert partitioned.fragment(1).internal_edges == {Triple(C, P, D)}

    def test_crossing_edges_replicated_on_both_sides(self):
        partitioned = two_fragment_partitioning()
        crossing = Triple(B, P, C)
        assert crossing in partitioned.fragment(0).crossing_edges
        assert crossing in partitioned.fragment(1).crossing_edges

    def test_extended_vertices(self):
        partitioned = two_fragment_partitioning()
        assert partitioned.fragment(0).extended_vertices == {C}
        assert partitioned.fragment(1).extended_vertices == {B}

    def test_fragment_of(self):
        partitioned = two_fragment_partitioning()
        assert partitioned.fragment_of(A) == 0
        assert partitioned.fragment_of(D) == 1

    def test_is_internal_is_extended(self):
        fragment = two_fragment_partitioning().fragment(0)
        assert fragment.is_internal(A)
        assert not fragment.is_internal(C)
        assert fragment.is_extended(C)

    def test_to_graph_contains_internal_and_crossing_edges(self):
        fragment = two_fragment_partitioning().fragment(0)
        graph = fragment.to_graph()
        assert len(graph) == 2
        assert Triple(A, P, B) in graph
        assert Triple(B, P, C) in graph

    def test_crossing_edges_union(self):
        partitioned = two_fragment_partitioning()
        assert partitioned.crossing_edges == {Triple(B, P, C)}

    def test_edge_labels(self):
        assert two_fragment_partitioning().fragment(0).edge_labels() == {P}

    def test_fragment_stats(self):
        stats = two_fragment_partitioning().fragment(0).stats()
        assert stats == {
            "internal_vertices": 2,
            "extended_vertices": 1,
            "internal_edges": 1,
            "crossing_edges": 1,
        }

    def test_partitioned_stats(self):
        stats = two_fragment_partitioning().stats()
        assert stats["fragments"] == 2
        assert stats["crossing_edges"] == 1
        assert stats["triples"] == 3


class TestValidation:
    def test_valid_partitioning_passes(self):
        two_fragment_partitioning().validate()

    def test_missing_vertex_assignment_raises(self):
        with pytest.raises(PartitioningError):
            PartitionedGraph(chain_graph(), {A: 0, B: 0, C: 0})

    def test_out_of_range_fragment_id_raises(self):
        with pytest.raises(PartitioningError):
            PartitionedGraph(chain_graph(), {A: 0, B: 0, C: 0, D: 5}, num_fragments=2)

    def test_every_edge_covered_by_some_fragment(self):
        partitioned = two_fragment_partitioning()
        covered = set()
        for fragment in partitioned:
            covered |= fragment.all_edges
        assert covered == set(chain_graph())

    def test_definition1_invariants_on_paper_example(self, example_partitioning):
        example_partitioning.validate()
        # Fig. 1: F1 has two extended vertices (006 and 012) and three crossing edges.
        f1 = example_partitioning.fragment(0)
        assert len(f1.extended_vertices) == 2
        assert len(f1.crossing_edges) == 3

    def test_single_fragment_has_no_crossing_edges(self):
        graph = chain_graph()
        partitioned = build_partitioned_graph(graph, {v: 0 for v in graph.vertices}, num_fragments=1)
        assert partitioned.crossing_edges == set()
        assert partitioned.fragment(0).extended_vertices == set()


def _corrupt(mutate) -> PartitionedGraph:
    partitioned = two_fragment_partitioning()
    mutate(partitioned.fragment(0), partitioned.fragment(1))
    return partitioned


#: One corruption per Definition 1 invariant ``validate()`` checks, with the
#: exact message it must raise ({a, b} | {c, d}, crossing edge b -> c).
CORRUPTIONS = {
    "doubly-internal vertex": (
        lambda f0, f1: f1.internal_vertices.add(A),
        f"vertex {A!r} is internal to two fragments",
    ),
    "uncovered vertex": (
        lambda f0, f1: f0.internal_vertices.discard(A),
        "internal vertex sets do not cover the graph",
    ),
    "internal edge with a foreign endpoint": (
        lambda f0, f1: f0.internal_edges.add(Triple(B, P, C)),
        f"internal edge {Triple(B, P, C).n3()} has a non-internal endpoint",
    ),
    "crossing edge with no internal endpoint": (
        lambda f0, f1: f0.crossing_edges.add(Triple(C, P, D)),
        f"crossing edge {Triple(C, P, D).n3()} must have exactly one internal endpoint",
    ),
    "crossing edge with two internal endpoints": (
        lambda f0, f1: f0.crossing_edges.add(Triple(A, P, B)),
        f"crossing edge {Triple(A, P, B).n3()} must have exactly one internal endpoint",
    ),
    "extended vertex that is also internal": (
        lambda f0, f1: f0.extended_vertices.add(A),
        f"extended vertex {A.n3()} is also internal",
    ),
    "extended vertex without a crossing edge": (
        lambda f0, f1: f0.extended_vertices.add(D),
        f"extended vertex {D.n3()} has no crossing edge",
    ),
    "extended vertex whose crossing edge was dropped": (
        lambda f0, f1: f1.crossing_edges.clear(),
        f"extended vertex {B.n3()} has no crossing edge",
    ),
    "uncovered edge": (
        lambda f0, f1: f0.internal_edges.discard(Triple(A, P, B)),
        "fragments do not cover every edge of the graph",
    ),
}


class TestValidateRejectsEachBrokenInvariant:
    @pytest.mark.parametrize("name", CORRUPTIONS)
    def test_corruption_raises_its_own_message(self, name):
        mutate, message = CORRUPTIONS[name]
        with pytest.raises(PartitioningError) as raised:
            _corrupt(mutate).validate()
        assert str(raised.value) == message

    def test_extended_vertex_on_either_end_of_its_crossing_edge_is_adjacent(self):
        # b -> c crosses out of fragment 0 and into fragment 1: the extended
        # vertex is the object on one side and the subject on the other.
        graph = RDFGraph([Triple(A, P, B), Triple(B, P, A), Triple(C, P, A), Triple(B, P, D)])
        partitioned = build_partitioned_graph(graph, {A: 0, B: 0, C: 1, D: 1}, num_fragments=2)
        assert partitioned.fragment(0).extended_vertices == {C, D}
        assert partitioned.fragment(1).extended_vertices == {A, B}
        partitioned.validate()

    def test_validate_runs_by_default_and_can_be_skipped(self, monkeypatch):
        calls = []
        monkeypatch.setattr(PartitionedGraph, "validate", lambda self: calls.append(self))
        build_partitioned_graph(chain_graph(), {A: 0, B: 0, C: 1, D: 1})
        assert len(calls) == 1
        build_partitioned_graph(chain_graph(), {A: 0, B: 0, C: 1, D: 1}, validate=False)
        assert len(calls) == 1
