"""LRU cache of query plans, keyed by shape and by the statistics they read.

Planning is cheap but not free, and production query streams are dominated
by a small number of *templates*: the same BGP shape instantiated with
different constants ("all papers of author X").  A key has two parts.  The
first is the query graph's canonical shape with non-predicate constants
abstracted away (:attr:`~repro.sparql.QueryGraph.shape_key`, computed once
per graph):

* variables are renamed ``?0, ?1, ...`` in first-appearance order,
* subject/object constants are renamed ``$0, $1, ...`` in first-appearance
  order (two occurrences of the same constant share a token, preserving the
  join structure), and
* predicate constants keep their IRI, because the planner's cardinality
  estimates are predicate-driven — two queries over different predicates
  genuinely deserve different plans.

The second is every statistic the plan was computed from, as values
(:meth:`~repro.planner.PlanOptimizer.statistics_read`): the summary of each
constant predicate in edge order, the graph's counts when a predicate is a
variable, and ``None`` while there are no statistics.  A plan is a pure
function of the two, so updates invalidate nothing: a plan chosen against
other statistics is never looked up, and a state that comes back (remove,
then re-add) finds its plan again.

Since :class:`~repro.planner.plan.QueryPlan` stores vertex *positions*, a
cached plan resolves correctly against any query with the same key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..sparql.query_graph import ShapeKey
from .plan import QueryPlan

#: A plan-cache key: the query's shape and the statistics its plan reads.
PlanKey = Tuple[ShapeKey, Optional[Tuple[object, ...]]]

#: Default maximum number of cached plans.
DEFAULT_PLAN_CACHE_SIZE = 128


class PlanCache:
    """A bounded LRU mapping of plan keys to plans, with hit accounting.

    All operations are guarded by a lock: concurrent queries on one session
    may plan at the same time, and the LRU reordering plus the hit/miss
    counters are not safe to interleave.
    """

    def __init__(self, maxsize: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("plan cache size must be at least 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[PlanKey, QueryPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def get(self, key: PlanKey) -> Optional[QueryPlan]:
        """The cached plan for ``key`` (source ``cache``), refreshing its LRU position (None on miss)."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: PlanKey, plan: QueryPlan) -> None:
        """Cache ``plan`` under ``key``, evicting the least recently used entries.

        What is stored is the plan marked as served from the cache, built
        here once, so a hit returns it as it is.
        """
        cached = plan.as_cached()
        with self._lock:
            self._entries[key] = cached
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def describe(self) -> Dict[str, object]:
        """Occupancy and hit-rate counters (what ``repro explain`` reports)."""
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 3),
        }
