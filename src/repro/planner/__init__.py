"""Cost-based query planning: statistics, cardinality estimation, plan cache.

The seed engine walked query vertices in a static
:func:`~repro.sparql.query_graph.traversal_order`.  This package adds the
standard next layer of a gStore-style engine:

* :mod:`statistics` — triple, vertex and predicate counts and distinct
  subjects/objects, read off the sorted columns of a site's encoding (or
  summed over every site's, for the coordinator) whenever the planner asks,
  so an update window needs no second copy to patch;
* :mod:`cardinality` — System-R-style estimates for triple patterns,
  vertex candidates and join fan-out;
* :mod:`plan` — the ordered :class:`QueryPlan` plus its ``explain()``
  rendering;
* :mod:`optimizer` — greedy minimum-cost ordering (connectivity-preserving,
  falling back to the static order without statistics) and the
  :class:`QueryPlanner` facade;
* :mod:`plan_cache` — a shape-keyed LRU so hot query templates plan once.

The planner is wired through :class:`~repro.store.TripleStore` (which
holds the statistics view of a site's encoding) /
:class:`~repro.store.LocalMatcher` (vertex order), the partial evaluator
(edge order) and the engine (per-query planning stage); the
``use_planner`` / ``plan_cache_size`` knobs live on
:class:`~repro.core.EngineConfig`.
"""

from .cardinality import MIN_CARDINALITY, CardinalityEstimator
from .optimizer import PlanOptimizer, QueryPlanner
from .plan import QueryPlan, SOURCE_CACHE, SOURCE_FALLBACK, SOURCE_STATISTICS
from ..sparql.query_graph import ShapeKey, shape_key
from .plan_cache import DEFAULT_PLAN_CACHE_SIZE, PlanCache
from .statistics import GraphStatistics, collect_statistics

__all__ = [
    "CardinalityEstimator",
    "DEFAULT_PLAN_CACHE_SIZE",
    "GraphStatistics",
    "MIN_CARDINALITY",
    "PlanCache",
    "PlanOptimizer",
    "QueryPlan",
    "QueryPlanner",
    "SOURCE_CACHE",
    "SOURCE_FALLBACK",
    "SOURCE_STATISTICS",
    "ShapeKey",
    "shape_key",
    "collect_statistics",
]
