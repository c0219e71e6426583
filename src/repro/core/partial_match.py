"""Local partial matches (Definition 5 of the paper).

A *local partial match* (LPM) is the overlap between a (possible) crossing
match of the query and one fragment: a partial assignment of query vertices
to fragment vertices (unassigned vertices stand for the paper's NULL), where

1. constants must map to themselves (or NULL),
2. every query edge between two assigned vertices must be matched by a data
   edge of the fragment — except when both endpoints map to extended
   vertices, whose connecting edge (if any) lives in another fragment,
3. the LPM contains at least one crossing edge,
4. query vertices mapped to *internal* vertices are fully expanded: every one
   of their query edges is matched, and
5. internally-mapped query vertices are weakly connected through
   internally-mapped paths (so one fragment may contribute several LPMs to
   the same crossing match).

The class below is an immutable value object; the enumeration algorithm
lives in :mod:`repro.core.partial_eval` and the validity checker (used by
tests and by the enumerator's final filter) in :func:`check_local_partial_match`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..partition.fragment import Fragment
from ..rdf.terms import IRI, Literal, Node, PatternTerm, Variable
from ..rdf.triples import Triple
from ..sparql.bindings import Binding
from ..sparql.query_graph import QueryGraph


@dataclass(frozen=True)
class LocalPartialMatch:
    """An immutable local partial match produced by one fragment.

    Attributes
    ----------
    fragments:
        The ids of the fragments that contributed to this (possibly joined)
        partial match.  Freshly enumerated LPMs have exactly one.
    assignment:
        The non-NULL part of the mapping ``f``: pairs of (query vertex, data
        vertex).
    edge_assignment:
        Pairs of (query edge index, data triple) for every matched query edge.
    crossing_assignment:
        The subset of ``edge_assignment`` whose data triple is a crossing
        edge of the producing fragment — the only part other fragments can
        share.
    internal_mask:
        Bitmask over query-vertex indices: bit ``i`` is set when query vertex
        ``i`` is mapped to an internal vertex of the producing fragment
        (exactly the LECSign of Definition 8).
    """

    fragments: FrozenSet[int]
    assignment: FrozenSet[Tuple[PatternTerm, Node]]
    edge_assignment: FrozenSet[Tuple[int, Triple]]
    crossing_assignment: FrozenSet[Tuple[int, Triple]]
    internal_mask: int

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        fragment_id: int,
        mapping: Mapping[PatternTerm, Node],
        edge_mapping: Mapping[int, Triple],
        crossing_edge_indexes: Set[int],
        query: QueryGraph,
        fragment: Fragment,
    ) -> "LocalPartialMatch":
        """Build an LPM from the enumerator's mutable working state."""
        internal_mask = 0
        for vertex, value in mapping.items():
            if fragment.is_internal(value):
                internal_mask |= 1 << query.vertex_index(vertex)
        crossing = frozenset(
            (index, triple) for index, triple in edge_mapping.items() if index in crossing_edge_indexes
        )
        return cls(
            fragments=frozenset({fragment_id}),
            assignment=frozenset(mapping.items()),
            edge_assignment=frozenset(edge_mapping.items()),
            crossing_assignment=crossing,
            internal_mask=internal_mask,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def fragment_id(self) -> int:
        """The producing fragment id (smallest id for joined matches)."""
        return min(self.fragments)

    def mapping(self) -> Dict[PatternTerm, Node]:
        return dict(self.assignment)

    def edge_mapping(self) -> Dict[int, Triple]:
        return dict(self.edge_assignment)

    def matched_vertices(self) -> Set[PatternTerm]:
        return {vertex for vertex, _ in self.assignment}

    def value_of(self, vertex: PatternTerm) -> Optional[Node]:
        for assigned_vertex, value in self.assignment:
            if assigned_vertex == vertex:
                return value
        return None

    @property
    def num_matched(self) -> int:
        return len(self.assignment)

    def internal_vertex_indexes(self) -> Set[int]:
        """Indices of query vertices mapped to internal vertices."""
        return {i for i in range(self.internal_mask.bit_length()) if self.internal_mask >> i & 1}

    def serialization(self, query: QueryGraph) -> Tuple[Optional[str], ...]:
        """The paper's serialization vector ``[f(v1), ..., f(vn)]`` (NULL → ``None``)."""
        mapping = self.mapping()
        return tuple(
            mapping[vertex].n3() if vertex in mapping else None for vertex in query.vertices
        )

    def to_binding(self) -> Binding:
        """The variable bindings of this (complete) match."""
        return Binding(
            {vertex: value for vertex, value in self.assignment if isinstance(vertex, Variable)}
        )

    def is_complete(self, query: QueryGraph) -> bool:
        """All query vertices internally matched somewhere (Theorem 4, condition 3)."""
        return self.internal_mask == query.full_mask

    # ------------------------------------------------------------------
    # Joining (used by the assembly stage)
    # ------------------------------------------------------------------
    def can_join(self, other: "LocalPartialMatch") -> bool:
        """Join conditions of [18] / Definition 9, applied at the LPM level.

        Two (possibly already joined) partial matches can join when they
        share at least one common crossing edge mapped to the same query
        edge, assign no query edge to different data edges, assign no query
        vertex to different data vertices, and their internally-matched
        vertex sets are disjoint.

        Note that fragment-set disjointness is *not* required: one crossing
        match may overlap a single fragment in several disconnected internal
        regions (condition 6 of Definition 5 splits them into separate local
        partial matches), so an accumulated join legitimately combines two
        partial matches of the same fragment.  Two LPMs of the same fragment
        can never share a crossing edge mapped to the same query edge, so
        the pairwise condition of Definition 9 is unaffected.
        """
        if self.internal_mask & other.internal_mask:
            return False
        if not (self.crossing_assignment & other.crossing_assignment):
            return False
        mine_edges = dict(self.edge_assignment)
        for index, triple in other.edge_assignment:
            if index in mine_edges and mine_edges[index] != triple:
                return False
        mine_vertices = dict(self.assignment)
        for vertex, value in other.assignment:
            if vertex in mine_vertices and mine_vertices[vertex] != value:
                return False
        return True

    def join(self, other: "LocalPartialMatch") -> "LocalPartialMatch":
        """Merge two joinable partial matches into one larger partial match."""
        return LocalPartialMatch(
            fragments=self.fragments | other.fragments,
            assignment=self.assignment | other.assignment,
            edge_assignment=self.edge_assignment | other.edge_assignment,
            crossing_assignment=self.crossing_assignment | other.crossing_assignment,
            internal_mask=self.internal_mask | other.internal_mask,
        )

    # ------------------------------------------------------------------
    # Network accounting
    # ------------------------------------------------------------------
    def shipment_size(self) -> int:
        """Approximate serialized size in bytes (used for shipment accounting)."""
        size = 8  # fragment id + mask framing
        for vertex, value in self.assignment:
            size += len(vertex.n3()) + len(value.n3())
        for _, triple in self.edge_assignment:
            size += 4 + len(triple.predicate.n3())
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        pairs = ", ".join(
            f"{vertex.n3()}->{value.n3()}" for vertex, value in sorted(self.assignment, key=lambda p: p[0].n3())
        )
        return f"<LPM F={sorted(self.fragments)} {{{pairs}}}>"


def check_local_partial_match(
    lpm: LocalPartialMatch,
    query: QueryGraph,
    fragment: Fragment,
) -> List[str]:
    """Check every Definition 5 condition; return a list of violations (empty = valid).

    Used by the test-suite as an oracle over the enumerator's output, and by
    the enumerator itself in paranoid mode.
    """
    violations: List[str] = []
    mapping = lpm.mapping()
    edge_mapping = lpm.edge_mapping()
    fragment_graph_edges = fragment.all_edges

    # Condition 1/2: constants map to themselves; every image is a fragment vertex.
    for vertex, value in mapping.items():
        if isinstance(vertex, (IRI, Literal)) and vertex != value:
            violations.append(f"constant {vertex.n3()} mapped to different term {value.n3()}")
        if value not in fragment.all_vertices:
            violations.append(f"{value.n3()} is not a vertex of fragment {fragment.name}")

    # Condition 3: edges between assigned vertices.
    for edge in query.edges:
        subject_value = mapping.get(edge.subject)
        object_value = mapping.get(edge.object)
        if subject_value is None or object_value is None:
            continue
        both_extended = fragment.is_extended(subject_value) and fragment.is_extended(object_value)
        matched_triple = edge_mapping.get(edge.index)
        if matched_triple is None:
            if not both_extended:
                violations.append(f"query edge #{edge.index} has both endpoints assigned but no data edge")
            continue
        if matched_triple not in fragment_graph_edges:
            violations.append(f"data edge {matched_triple.n3()} is not stored in fragment {fragment.name}")
        if matched_triple.subject != subject_value or matched_triple.object != object_value:
            violations.append(f"data edge {matched_triple.n3()} does not connect the assigned endpoints")
        if not isinstance(edge.predicate, Variable) and matched_triple.predicate != edge.predicate:
            violations.append(f"data edge {matched_triple.n3()} has the wrong property for edge #{edge.index}")

    # Condition 4: at least one crossing edge.
    if not any(triple in fragment.crossing_edges for _, triple in lpm.edge_assignment):
        violations.append("local partial match contains no crossing edge")

    # Condition 5: internally matched vertices are fully expanded.
    for vertex, value in mapping.items():
        if not fragment.is_internal(value):
            continue
        for edge in query.edges_of(vertex):
            if edge.index not in edge_mapping:
                violations.append(
                    f"internal vertex {value.n3()} (query {vertex.n3()}) misses query edge #{edge.index}"
                )

    # Condition 6: internally matched query vertices weakly connected through
    # internally matched vertices.
    internal_query_vertices = {
        vertex for vertex, value in mapping.items() if fragment.is_internal(value)
    }
    if len(internal_query_vertices) > 1:
        anchor = next(iter(internal_query_vertices))
        for vertex in internal_query_vertices:
            if not query.weakly_connected_via(anchor, vertex, internal_query_vertices):
                violations.append(
                    f"internally matched vertices {anchor.n3()} and {vertex.n3()} are not connected internally"
                )

    # The matched part must be connected through matched data edges.
    if len(mapping) > 1 and not _matched_part_connected(lpm, query):
        violations.append("the matched subgraph is not connected")
    return violations


def _matched_part_connected(lpm: LocalPartialMatch, query: QueryGraph) -> bool:
    matched_vertices = lpm.matched_vertices()
    edge_mapping = lpm.edge_mapping()
    adjacency: Dict[PatternTerm, Set[PatternTerm]] = {vertex: set() for vertex in matched_vertices}
    for index in edge_mapping:
        edge = query.edge_at(index)
        adjacency[edge.subject].add(edge.object)
        adjacency[edge.object].add(edge.subject)
    start = next(iter(matched_vertices))
    seen = {start}
    frontier = [start]
    while frontier:
        vertex = frontier.pop()
        for neighbour in adjacency[vertex]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen == matched_vertices
