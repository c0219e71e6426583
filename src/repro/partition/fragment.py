"""Fragments and distributed RDF graphs (Definition 1 of the paper).

A distributed RDF graph is a vertex-disjoint partitioning of the vertex set
into fragments.  Each fragment ``F_i`` stores:

* its *internal vertices* ``V_i`` (the partition block assigned to it),
* the *internal edges* ``E_i`` between two internal vertices,
* the *crossing edges* ``Ec_i`` — every edge with exactly one endpoint in
  ``V_i`` (replicated in both incident fragments, which is what guarantees
  that star queries can be answered inside a single fragment), and
* the *extended vertices* ``Ve_i`` — the non-local endpoints of its crossing
  edges.

:class:`PartitionedGraph` builds all fragments from a vertex assignment and
verifies the invariants of Definition 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..rdf.graph import RDFGraph
from ..rdf.terms import Node
from ..rdf.triples import Triple


class PartitioningError(ValueError):
    """Raised when a vertex assignment violates Definition 1."""


@dataclass
class Fragment:
    """One fragment of a distributed RDF graph, hosted by one site."""

    fragment_id: int
    internal_vertices: Set[Node] = field(default_factory=set)
    internal_edges: Set[Triple] = field(default_factory=set)
    crossing_edges: Set[Triple] = field(default_factory=set)
    extended_vertices: Set[Node] = field(default_factory=set)

    @property
    def name(self) -> str:
        return f"F{self.fragment_id}"

    @property
    def all_edges(self) -> Set[Triple]:
        """``E_i ∪ Ec_i`` — everything physically stored at the site."""
        return self.internal_edges | self.crossing_edges

    @property
    def all_vertices(self) -> Set[Node]:
        """``V_i ∪ Ve_i``."""
        return self.internal_vertices | self.extended_vertices

    @property
    def num_edges(self) -> int:
        return len(self.internal_edges) + len(self.crossing_edges)

    def is_internal(self, vertex: Node) -> bool:
        return vertex in self.internal_vertices

    def is_extended(self, vertex: Node) -> bool:
        return vertex in self.extended_vertices

    def is_crossing(self, edge: Triple) -> bool:
        return edge in self.crossing_edges

    def edge_labels(self) -> Set:
        """``Σ_i`` — the set of edge labels (predicates) used in the fragment."""
        return {t.predicate for t in self.all_edges}

    def stats(self) -> Dict[str, int]:
        return {
            "internal_vertices": len(self.internal_vertices),
            "extended_vertices": len(self.extended_vertices),
            "internal_edges": len(self.internal_edges),
            "crossing_edges": len(self.crossing_edges),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Fragment {self.name} |V|={len(self.internal_vertices)} "
            f"|E|={len(self.internal_edges)} |Ec|={len(self.crossing_edges)}>"
        )


class PartitionedGraph:
    """A distributed RDF graph: the original graph plus its fragments."""

    def __init__(
        self,
        graph: RDFGraph,
        assignment: Mapping[Node, int],
        num_fragments: Optional[int] = None,
        strategy: str = "custom",
    ) -> None:
        self._graph = graph
        self._assignment: Dict[Node, int] = dict(assignment)
        self._strategy = strategy
        vertices = graph.vertices
        missing = vertices - set(self._assignment)
        if missing:
            raise PartitioningError(
                f"{len(missing)} graph vertices have no fragment assignment (e.g. {next(iter(missing))!r})"
            )
        ids = set(self._assignment[v] for v in vertices)
        if num_fragments is None:
            num_fragments = (max(ids) + 1) if ids else 1
        if ids and (min(ids) < 0 or max(ids) >= num_fragments):
            raise PartitioningError("fragment ids must lie in [0, num_fragments)")
        self._fragments: List[Fragment] = [Fragment(i) for i in range(num_fragments)]
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for vertex in self._graph.vertices:
            self._fragments[self._assignment[vertex]].internal_vertices.add(vertex)
        for triple in self._graph:
            home_s = self._assignment[triple.subject]
            home_o = self._assignment[triple.object]
            if home_s == home_o:
                self._fragments[home_s].internal_edges.add(triple)
            else:
                # Crossing edge: replicated in both incident fragments.
                self._fragments[home_s].crossing_edges.add(triple)
                self._fragments[home_s].extended_vertices.add(triple.object)
                self._fragments[home_o].crossing_edges.add(triple)
                self._fragments[home_o].extended_vertices.add(triple.subject)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> RDFGraph:
        """The original, unpartitioned RDF graph."""
        return self._graph

    @property
    def strategy(self) -> str:
        """Name of the partitioning strategy that produced this partitioning."""
        return self._strategy

    @property
    def fragments(self) -> Tuple[Fragment, ...]:
        return tuple(self._fragments)

    @property
    def num_fragments(self) -> int:
        return len(self._fragments)

    def fragment_of(self, vertex: Node) -> int:
        """The id of the fragment whose internal vertices include ``vertex``."""
        return self._assignment[vertex]

    def fragment(self, fragment_id: int) -> Fragment:
        return self._fragments[fragment_id]

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self._fragments)

    def __len__(self) -> int:
        return len(self._fragments)

    @property
    def assignment(self) -> Dict[Node, int]:
        return dict(self._assignment)

    @property
    def crossing_edges(self) -> Set[Triple]:
        """``Ec`` — the union of all fragments' crossing edges."""
        crossing: Set[Triple] = set()
        for fragment in self._fragments:
            crossing |= fragment.crossing_edges
        return crossing

    # ------------------------------------------------------------------
    # Invariants (Definition 1) — used by tests and sanity checks
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`PartitioningError` if any Definition 1 invariant is broken."""
        all_vertices = self._graph.vertices
        seen: Set[Node] = set()
        for fragment in self._fragments:
            overlap = seen & fragment.internal_vertices
            if overlap:
                raise PartitioningError(f"vertex {next(iter(overlap))!r} is internal to two fragments")
            seen |= fragment.internal_vertices
        if seen != all_vertices:
            raise PartitioningError("internal vertex sets do not cover the graph")
        covered: Set[Triple] = set()
        for fragment in self._fragments:
            for edge in fragment.internal_edges:
                if not (fragment.is_internal(edge.subject) and fragment.is_internal(edge.object)):
                    raise PartitioningError(f"internal edge {edge.n3()} has a non-internal endpoint")
            for edge in fragment.crossing_edges:
                internal_ends = int(fragment.is_internal(edge.subject)) + int(fragment.is_internal(edge.object))
                if internal_ends != 1:
                    raise PartitioningError(f"crossing edge {edge.n3()} must have exactly one internal endpoint")
            crossing_endpoints = {end for edge in fragment.crossing_edges for end in (edge.subject, edge.object)}
            for vertex in fragment.extended_vertices:
                if fragment.is_internal(vertex):
                    raise PartitioningError(f"extended vertex {vertex.n3()} is also internal")
                if vertex not in crossing_endpoints:
                    raise PartitioningError(f"extended vertex {vertex.n3()} has no crossing edge")
            covered |= fragment.internal_edges
            covered |= fragment.crossing_edges
        if covered != set(self._graph):
            raise PartitioningError("fragments do not cover every edge of the graph")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        sizes = [fragment.num_edges for fragment in self._fragments]
        return {
            "strategy": self._strategy,
            "fragments": self.num_fragments,
            "triples": len(self._graph),
            "crossing_edges": len(self.crossing_edges),
            "largest_fragment_edges": max(sizes) if sizes else 0,
            "smallest_fragment_edges": min(sizes) if sizes else 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<PartitionedGraph strategy={self._strategy!r} fragments={self.num_fragments} "
            f"crossing={len(self.crossing_edges)}>"
        )


def build_partitioned_graph(
    graph: RDFGraph,
    assignment: Mapping[Node, int],
    num_fragments: Optional[int] = None,
    strategy: str = "custom",
    validate: bool = True,
) -> PartitionedGraph:
    """Build (and optionally validate) a :class:`PartitionedGraph`."""
    partitioned = PartitionedGraph(graph, assignment, num_fragments, strategy)
    if validate:
        partitioned.validate()
    return partitioned
