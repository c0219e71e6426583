"""Greedy cost-based plan optimization and the planner facade.

:class:`PlanOptimizer` turns a query graph into a :class:`QueryPlan`:

* with statistics, a greedy minimum-estimated-cost ordering: start from the
  vertex with the fewest estimated candidates, then repeatedly extend the
  already-ordered region across the connected frontier, picking the vertex
  whose join keeps the estimated intermediate-result size smallest (the
  "fail fast" ordering);
* without statistics (or while they describe an empty graph), the seed's static
  :func:`~repro.sparql.query_graph.traversal_order`, so behaviour degrades
  gracefully to exactly what the engine did before the planner existed.

Connectivity is preserved in both cases: after the first vertex, every next
vertex is adjacent to an already-placed one whenever the query graph allows
it, which the backtracking matcher relies on for early pruning.

:class:`QueryPlanner` bundles the optimizer with a
:class:`~repro.planner.plan_cache.PlanCache` keyed by the query's shape and
the statistics its plan reads, so hot query templates pay the optimization
cost once per statistics state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..rdf.terms import PatternTerm, Variable
from ..sparql.query_graph import QueryGraph, traversal_order
from .cardinality import CardinalityEstimator
from .plan import QueryPlan, SOURCE_FALLBACK, SOURCE_STATISTICS
from .plan_cache import DEFAULT_PLAN_CACHE_SIZE, PlanCache
from .statistics import GraphStatistics, collect_statistics

if TYPE_CHECKING:  # the store package imports the planner
    from ..store.encoding import EncodedGraph


class PlanOptimizer:
    """Produce ordered query plans, statistics-driven when possible."""

    def __init__(self, statistics: Optional[GraphStatistics] = None) -> None:
        self._statistics = statistics
        self._estimator = CardinalityEstimator(statistics) if statistics is not None else None

    @property
    def has_statistics(self) -> bool:
        """Do statistics drive the plans now?  Read afresh each time: an update may fill or empty the columns."""
        return self._statistics is not None and not self._statistics.is_empty

    def statistics_read(self, query: QueryGraph) -> Optional[Tuple[object, ...]]:
        """The statistics a plan of ``query`` reads, as values (``None``: none, a fallback plan).

        The estimator reads :meth:`GraphStatistics.read` of each constant
        predicate, taken here in edge order, and the graph's triple and vertex
        counts only for a variable predicate.  So the plan is a pure function
        of ``query.shape_key`` and this tuple.
        """
        statistics = self._statistics
        if statistics is None or statistics.is_empty:
            return None
        read_of = statistics.read
        read: List[object] = [
            read_of(edge.predicate) for edge in query.edges if not isinstance(edge.predicate, Variable)
        ]
        if len(read) < query.num_edges:
            read.append((statistics.num_triples, statistics.num_vertices))
        return tuple(read)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: QueryGraph) -> QueryPlan:
        """Order ``query``'s vertices greedily by estimated cost.

        Falls back to the static traversal order when no statistics are
        available (or the query is empty) — the plan is then marked with
        ``SOURCE_FALLBACK`` so callers can tell the difference.
        """
        estimator = self._estimator
        if estimator is None or estimator.statistics.is_empty or query.num_vertices == 0:
            return self._fallback_plan(query)
        return self._greedy_plan(query, estimator)

    def _fallback_plan(self, query: QueryGraph) -> QueryPlan:
        order = traversal_order(query)
        return QueryPlan(
            vertex_order=tuple(query.vertex_index(vertex) for vertex in order),
            edge_order=tuple(edge.index for edge in query.edges),
            source=SOURCE_FALLBACK,
        )

    def _greedy_plan(self, query: QueryGraph, estimator: CardinalityEstimator) -> QueryPlan:
        vertices = list(query.vertices)
        candidate_estimates: Dict[PatternTerm, float] = {
            vertex: estimator.vertex_cardinality(query, vertex) for vertex in vertices
        }

        def start_key(vertex: PatternTerm) -> Tuple:
            return (
                candidate_estimates[vertex],
                1 if isinstance(vertex, Variable) else 0,
                -query.degree(vertex),
                query.vertex_index(vertex),
            )

        order: List[PatternTerm] = []
        estimates: List[float] = []
        placed = set()
        intermediate = 1.0
        total_cost = 0.0
        while len(order) < len(vertices):
            frontier = [
                v
                for v in vertices
                if v not in placed and any(n in placed for n in query.neighbours(v))
            ]
            if not frontier:
                # First vertex, or a new connected component of a
                # disconnected query: restart from the cheapest vertex.
                best = min((v for v in vertices if v not in placed), key=start_key)
                grown = intermediate * candidate_estimates[best]
            else:
                best = None
                grown = 0.0
                best_key: Optional[Tuple] = None
                for vertex in frontier:
                    expansion = self._cheapest_expansion(query, estimator, vertex, placed)
                    new_size = max(
                        min(intermediate * expansion, intermediate * candidate_estimates[vertex]),
                        0.1,
                    )
                    key = (
                        new_size,
                        1 if isinstance(vertex, Variable) else 0,
                        -query.degree(vertex),
                        query.vertex_index(vertex),
                    )
                    if best_key is None or key < best_key:
                        best_key = key
                        best = vertex
                        grown = new_size
                assert best is not None
            order.append(best)
            placed.add(best)
            intermediate = max(grown, 0.1)
            estimates.append(intermediate)
            total_cost += intermediate

        pattern_costs = {edge.index: estimator.pattern_cardinality(edge) for edge in query.edges}
        edge_order = tuple(sorted(pattern_costs, key=lambda index: (pattern_costs[index], index)))
        return QueryPlan(
            vertex_order=tuple(query.vertex_index(vertex) for vertex in order),
            edge_order=edge_order,
            estimates=tuple(estimates),
            estimated_cost=total_cost,
            source=SOURCE_STATISTICS,
        )

    @staticmethod
    def _cheapest_expansion(
        query: QueryGraph,
        estimator: CardinalityEstimator,
        vertex: PatternTerm,
        placed: set,
    ) -> float:
        """Smallest expected fan-out over the edges connecting ``vertex`` to
        the already-placed region (the matcher narrows candidates through
        *every* such edge, so the tightest one dominates)."""
        best: Optional[float] = None
        for edge in query.edges_of(vertex):
            other = edge.other_endpoint(vertex) if vertex in edge.endpoints else None
            if other is None or (other not in placed and other != vertex):
                continue
            fan_out = estimator.expansion_factor(edge, other if other in placed else vertex)
            if best is None or fan_out < best:
                best = fan_out
        return best if best is not None else 1.0


class QueryPlanner:
    """Statistics + optimizer + plan cache: the engine-facing planner."""

    def __init__(
        self,
        statistics: Optional[GraphStatistics] = None,
        cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    ) -> None:
        self._statistics = statistics
        self._optimizer = PlanOptimizer(statistics)
        self.cache = PlanCache(cache_size)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, encoded: "EncodedGraph", cache_size: int = DEFAULT_PLAN_CACHE_SIZE) -> "QueryPlanner":
        """A planner over :func:`collect_statistics` of ``encoded``."""
        return cls(collect_statistics(encoded), cache_size=cache_size)

    @property
    def statistics(self) -> Optional[GraphStatistics]:
        return self._statistics

    @property
    def has_statistics(self) -> bool:
        return self._optimizer.has_statistics

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_for(self, query: QueryGraph) -> QueryPlan:
        """The (possibly cached) plan for ``query``.

        The cache key is the query's shape plus the statistics its plan reads
        (:meth:`PlanOptimizer.statistics_read`), as values: a plan chosen
        against other statistics is never served, so an update needs no
        invalidation, and a state that comes back (remove, then re-add) hits.
        """
        key = (query.shape_key, self._optimizer.statistics_read(query))
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        plan = self._optimizer.plan(query)
        self.cache.put(key, plan)
        return plan

    def order_for(self, query: QueryGraph) -> List[PatternTerm]:
        """Planned vertex traversal order for ``query`` (matcher entry point)."""
        return self.plan_for(query).order_for(query)

    def explain(self, query: QueryGraph) -> str:
        """Render the plan chosen for ``query``."""
        return self.plan_for(query).explain(query)
