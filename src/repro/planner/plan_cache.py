"""Shape-keyed LRU cache of query plans.

Planning is cheap but not free, and production query streams are dominated
by a small number of *templates*: the same BGP shape instantiated with
different constants ("all papers of author X").  The cache therefore keys
plans on the query graph's canonical shape with non-predicate constants
abstracted away (:attr:`~repro.sparql.QueryGraph.shape_key`, computed once
per graph):

* variables are renamed ``?0, ?1, ...`` in first-appearance order,
* subject/object constants are renamed ``$0, $1, ...`` in first-appearance
  order (two occurrences of the same constant share a token, preserving the
  join structure), and
* predicate constants keep their IRI, because the planner's cardinality
  estimates are predicate-driven — two queries over different predicates
  genuinely deserve different plans.

Since :class:`~repro.planner.plan.QueryPlan` stores vertex *positions*, a
cached plan resolves correctly against any query with the same key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from ..sparql.query_graph import ShapeKey
from .plan import QueryPlan

#: Default maximum number of cached plans.
DEFAULT_PLAN_CACHE_SIZE = 128


class PlanCache:
    """A bounded LRU mapping of query shapes to plans, with hit accounting.

    All operations are guarded by a lock: concurrent queries on one session
    may plan at the same time, and the LRU reordering plus the hit/miss
    counters are not safe to interleave.
    """

    def __init__(self, maxsize: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("plan cache size must be at least 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[ShapeKey, QueryPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def get(self, key: ShapeKey) -> Optional[QueryPlan]:
        """The cached plan for ``key``, refreshing its LRU position (None on miss)."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: ShapeKey, plan: QueryPlan) -> None:
        """Cache ``plan`` under ``key``, evicting the least recently used entries."""
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached plan and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: ShapeKey) -> bool:
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
