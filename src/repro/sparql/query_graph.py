"""Query graph representation (Definition 2 of the paper).

A SPARQL BGP query is viewed as a graph whose vertices are the subject and
object terms of the triple patterns (constants or variables) and whose edges
are the triple patterns themselves, labelled by the predicate (a constant
property or a variable).

The query graph also fixes a *vertex order*: the LECSign bitstring of a LEC
feature (Definition 8) has one bit per query vertex, so every component that
manipulates LEC features needs a stable index for each query vertex.  The
order is the first-appearance order of terms in the BGP, which matches the
serialization-vector convention of the paper's examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..rdf.terms import IRI, PatternTerm, Variable
from ..rdf.triples import TriplePattern
from .algebra import BasicGraphPattern, SelectQuery


@dataclass(frozen=True, slots=True)
class QueryEdge:
    """A directed, labelled edge of the query graph.

    ``index`` is the position of the originating triple pattern in the BGP,
    which keeps parallel edges (a multiset of edges, per Definition 2)
    distinguishable.
    """

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm
    index: int

    @property
    def pattern(self) -> TriplePattern:
        return TriplePattern(self.subject, self.predicate, self.object)

    @property
    def endpoints(self) -> Tuple[PatternTerm, PatternTerm]:
        return (self.subject, self.object)

    def other_endpoint(self, vertex: PatternTerm) -> PatternTerm:
        if vertex == self.subject:
            return self.object
        if vertex == self.object:
            return self.subject
        raise ValueError(f"{vertex!r} is not an endpoint of this edge")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"QueryEdge#{self.index}({self.subject.n3()} {self.predicate.n3()} {self.object.n3()})"


class QueryGraph:
    """The graph view of a BGP query with a stable vertex order."""

    def __init__(self, bgp: BasicGraphPattern) -> None:
        self._bgp = bgp
        self._vertices: List[PatternTerm] = []
        self._vertex_index: Dict[PatternTerm, int] = {}
        self._edges: List[QueryEdge] = []
        self._adjacency: Dict[PatternTerm, List[QueryEdge]] = {}
        for position, pattern in enumerate(bgp):
            edge = QueryEdge(pattern.subject, pattern.predicate, pattern.object, position)
            self._edges.append(edge)
            for term in (pattern.subject, pattern.object):
                if term not in self._vertex_index:
                    self._vertex_index[term] = len(self._vertices)
                    self._vertices.append(term)
                    self._adjacency[term] = []
            self._adjacency[pattern.subject].append(edge)
            if pattern.object != pattern.subject:
                self._adjacency[pattern.object].append(edge)
        self._full_mask = (1 << len(self._vertices)) - 1

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_query(cls, query: SelectQuery) -> "QueryGraph":
        return cls(query.bgp)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def bgp(self) -> BasicGraphPattern:
        return self._bgp

    @property
    def vertices(self) -> Tuple[PatternTerm, ...]:
        """Query vertices in their stable (first-appearance) order."""
        return tuple(self._vertices)

    @property
    def edges(self) -> Tuple[QueryEdge, ...]:
        return tuple(self._edges)

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """Variables appearing as vertices, in vertex order."""
        return tuple(v for v in self._vertices if isinstance(v, Variable))

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def full_mask(self) -> int:
        """The LECSign with every query vertex's bit set (a complete match)."""
        return self._full_mask

    def vertex_index(self, vertex: PatternTerm) -> int:
        """The stable index of ``vertex`` (used for LECSign bit positions)."""
        return self._vertex_index[vertex]

    def vertex_at(self, index: int) -> PatternTerm:
        return self._vertices[index]

    def __contains__(self, vertex: PatternTerm) -> bool:
        return vertex in self._vertex_index

    def edges_of(self, vertex: PatternTerm) -> Tuple[QueryEdge, ...]:
        """All edges adjacent to ``vertex`` (in either direction)."""
        return tuple(self._adjacency.get(vertex, ()))

    def neighbours(self, vertex: PatternTerm) -> Set[PatternTerm]:
        """All vertices adjacent to ``vertex``."""
        found: Set[PatternTerm] = set()
        for edge in self._adjacency.get(vertex, ()):
            found.add(edge.other_endpoint(vertex) if vertex in edge.endpoints else vertex)
        found.discard(vertex)
        return found

    def edge_at(self, index: int) -> QueryEdge:
        return self._edges[index]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        if not self._vertices:
            return True
        seen = {self._vertices[0]}
        frontier = [self._vertices[0]]
        while frontier:
            vertex = frontier.pop()
            for neighbour in self.neighbours(vertex):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self._vertices)

    def is_star(self) -> bool:
        """``True`` when the query is a star: one centre vertex shared by all edges.

        The paper's evaluation divides benchmark queries into *star* queries
        (answerable inside a single fragment because crossing edges are
        replicated) and *other shapes*.
        """
        if self.num_edges <= 1:
            return True
        for centre in self._vertices:
            if all(centre in edge.endpoints for edge in self._edges):
                return True
        return False

    def degree(self, vertex: PatternTerm) -> int:
        return len(self._adjacency.get(vertex, ()))

    def classify_shape(self) -> str:
        """Classify the query shape: ``star``, ``path``, ``tree``, ``cycle`` or ``complex``."""
        if self.is_star():
            return "star"
        degrees = [self.degree(v) for v in self._vertices]
        if self.num_edges == self.num_vertices - 1:
            if all(d <= 2 for d in degrees):
                return "path"
            return "tree"
        if self.num_edges == self.num_vertices and all(d == 2 for d in degrees):
            return "cycle"
        return "complex"

    def weakly_connected_via(self, source: PatternTerm, target: PatternTerm, allowed: Set[PatternTerm]) -> bool:
        """Is there a path from ``source`` to ``target`` using only ``allowed`` vertices?

        Implements the reachability test needed by condition 6 of Definition 5
        (a path whose every vertex maps to an internal vertex).
        """
        if source not in allowed or target not in allowed:
            return False
        if source == target:
            return True
        seen = {source}
        frontier = [source]
        while frontier:
            vertex = frontier.pop()
            for neighbour in self.neighbours(vertex):
                if neighbour == target:
                    return True
                if neighbour in allowed and neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return False

    def induced_edge_set(self, vertices: Set[PatternTerm]) -> FrozenSet[int]:
        """Indices of edges whose both endpoints are in ``vertices``."""
        return frozenset(
            edge.index for edge in self._edges if edge.subject in vertices and edge.object in vertices
        )

    def constant_vertices(self) -> Tuple[PatternTerm, ...]:
        """Query vertices that are constants (IRIs or literals)."""
        return tuple(v for v in self._vertices if not isinstance(v, Variable))

    def has_selective_pattern(self) -> bool:
        """Whether any triple pattern has a constant subject or object.

        The paper calls such patterns *selective triple patterns*; queries
        with them evaluate much faster because candidate sets shrink early.
        """
        return any(
            not isinstance(edge.subject, Variable) or not isinstance(edge.object, Variable)
            for edge in self._edges
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<QueryGraph |V|={self.num_vertices} |E|={self.num_edges} shape={self.classify_shape()}>"


def traversal_order(graph: QueryGraph, start: Optional[PatternTerm] = None) -> List[PatternTerm]:
    """A connected traversal order of the query vertices.

    The matcher assigns query vertices in this order so that each newly
    assigned vertex (after the first) is adjacent to an already-assigned one,
    which keeps intermediate result sizes small.  Constant vertices and
    vertices with many incident edges are visited first.
    """
    if graph.num_vertices == 0:
        return []

    def priority(vertex: PatternTerm) -> Tuple[int, int]:
        is_constant = 0 if not isinstance(vertex, Variable) else 1
        return (is_constant, -graph.degree(vertex))

    vertices = list(graph.vertices)
    if start is None:
        start = min(vertices, key=priority)
    order = [start]
    placed = {start}
    while len(order) < len(vertices):
        frontier = [v for v in vertices if v not in placed and any(n in placed for n in graph.neighbours(v))]
        if not frontier:
            # Disconnected query graph: start a new component.
            frontier = [v for v in vertices if v not in placed]
        next_vertex = min(frontier, key=priority)
        order.append(next_vertex)
        placed.add(next_vertex)
    return order
