"""Query plans: an ordered traversal of the query vertices plus estimates.

A :class:`QueryPlan` is *shape-generic*: it stores vertex positions (indexes
into :attr:`QueryGraph.vertices`) and query-edge indexes rather than the
terms themselves, so one plan can be reused for every query sharing the same
canonical shape (see :mod:`repro.planner.plan_cache`).  ``order_for`` resolves
the positions against a concrete query graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..rdf.terms import PatternTerm
from ..sparql.query_graph import QueryGraph

#: How a plan was produced.
SOURCE_STATISTICS = "statistics"
SOURCE_FALLBACK = "fallback"
SOURCE_CACHE = "cache"


@dataclass(frozen=True)
class QueryPlan:
    """An ordered evaluation plan for one (connected) query graph shape."""

    #: Vertex positions (indexes into ``QueryGraph.vertices``) in visit order.
    vertex_order: Tuple[int, ...]
    #: Query-edge indexes, most selective (smallest estimated cardinality) first.
    edge_order: Tuple[int, ...]
    #: Estimated intermediate-result size after assigning each vertex of
    #: ``vertex_order`` (parallel to it; empty for fallback plans).
    estimates: Tuple[float, ...] = ()
    #: Sum of the intermediate-result estimates (the greedy cost objective).
    estimated_cost: float = 0.0
    #: ``statistics`` (optimized), ``fallback`` (static order) or ``cache``.
    source: str = SOURCE_FALLBACK

    # ------------------------------------------------------------------
    # Resolution against a concrete query
    # ------------------------------------------------------------------
    def order_for(self, query: QueryGraph) -> List[PatternTerm]:
        """The planned traversal order as terms of ``query``."""
        return [query.vertex_at(index) for index in self.vertex_order]

    def as_cached(self) -> "QueryPlan":
        """The same plan, marked as served from the plan cache."""
        return replace(self, source=SOURCE_CACHE)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def explain(self, query: QueryGraph) -> str:
        """Human-readable rendering of the chosen order and estimates."""
        lines = [
            f"plan source: {self.source}",
            f"estimated cost: {self.estimated_cost:.1f}",
            "vertex order:",
        ]
        for position, index in enumerate(self.vertex_order):
            term = query.vertex_at(index)
            if position < len(self.estimates):
                estimate = f"~{self.estimates[position]:.1f} intermediate results"
            else:
                estimate = "no estimate"
            lines.append(f"  {position + 1}. {term.n3()}  ({estimate})")
        lines.append("edge order:")
        for rank, edge_index in enumerate(self.edge_order):
            edge = query.edge_at(edge_index)
            lines.append(
                f"  {rank + 1}. {edge.subject.n3()} {edge.predicate.n3()} {edge.object.n3()}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.vertex_order)
