"""Session-level result cache: answers keyed by query template + bindings.

Production query streams are dominated by repeated *instantiations* of a
small number of templates, and the answers only change when the data does.
This cache therefore keys a finished :class:`~repro.api.Result` on

* the plan cache's canonical *shape key* (constants abstracted, join
  structure preserved — see :func:`repro.planner.plan_cache.shape_key`),
* the concrete constant *bindings* in edge order (two instantiations of one
  template are distinct entries),
* the evaluating engine, the projection/``DISTINCT``/``LIMIT`` modifiers, and
* the graph's :attr:`~repro.rdf.graph.RDFGraph.version` — a mutation bumps
  the version and naturally invalidates every entry for the old snapshot.

The cache is **opt-in** (``repro.open(..., result_cache=128)``): the default
session keeps the historical contract that every ``query()`` call executes
and yields fresh statistics.  Hits and misses feed the session's
:class:`~repro.obs.MetricsRegistry` (``repro_result_cache_hits_total`` /
``repro_result_cache_misses_total`` + a size gauge), pre-created at zero so
scrapes see the families before the first query.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from ..obs import MetricsRegistry
from ..planner.plan_cache import shape_key
from ..rdf.terms import Variable
from ..sparql.algebra import SelectQuery
from ..sparql.query_graph import QueryGraph
from .result import Result

#: Metric family names fed by the cache (documented in docs/observability.md).
HITS_FAMILY = "repro_result_cache_hits_total"
MISSES_FAMILY = "repro_result_cache_misses_total"
SIZE_FAMILY = "repro_result_cache_size"

#: Help strings, kept in one place so the pre-created and per-event series
#: register identically.
_HITS_HELP = "Session result-cache hits (answers served without executing)."
_MISSES_HELP = "Session result-cache misses (answers computed and stored)."
_SIZE_HELP = "Entries currently held by the session result cache."


def result_cache_key(
    query: SelectQuery, *, engine: str, graph_version: int
) -> Hashable:
    """The cache key of ``query`` as evaluated by ``engine`` at ``graph_version``.

    Reuses the plan cache's shape abstraction and re-attaches what the shape
    deliberately drops: the concrete constants (in edge order, so two
    constants that the shape maps to one ``$N`` token still distinguish the
    instantiations) and the solution modifiers.
    """
    graph = QueryGraph(query.bgp)
    shape = shape_key(graph)
    bindings: Tuple[str, ...] = tuple(
        term.n3()
        for edge in graph.edges
        for term in (edge.subject, edge.predicate, edge.object)
        if not isinstance(term, Variable)
    )
    projection = tuple(variable.name for variable in query.effective_projection)
    return (
        engine,
        graph_version,
        shape,
        bindings,
        projection,
        bool(query.distinct),
        query.limit,
        bool(query.is_ask),
    )


@dataclass(frozen=True)
class _Entry:
    """What a hit must reproduce: answers, statistics and shipment."""

    result_set: object
    statistics: object
    shipment: object

    def materialize(self) -> Result:
        """A fresh :class:`Result` — its own statistics copy, ``cache_hit=True``."""
        result = Result(self.result_set, self.statistics.snapshot())
        result.shipment = self.shipment
        result.cache_hit = True
        return result


class ResultCache:
    """A bounded, lock-guarded LRU of finished query results.

    Stores the *detached* statistics and shipment snapshot alongside the
    result set; :meth:`get` materializes a fresh :class:`Result` per hit (a
    deep statistics copy each time), so callers can never mutate the cached
    numbers through a returned result.
    """

    def __init__(self, maxsize: int, metrics: Optional[MetricsRegistry] = None) -> None:
        if maxsize < 1:
            raise ValueError(f"result cache size must be at least 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._metrics = metrics
        self.hits = 0
        self.misses = 0
        if metrics is not None:
            metrics.counter(HITS_FAMILY, _HITS_HELP).inc(0)
            metrics.counter(MISSES_FAMILY, _MISSES_HELP).inc(0)
            metrics.gauge(SIZE_FAMILY, _SIZE_HELP).set(0)

    def get(self, key: Hashable) -> Optional[Result]:
        """The cached result for ``key`` (LRU-refreshed), or ``None`` on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if self._metrics is not None:
            family = HITS_FAMILY if entry is not None else MISSES_FAMILY
            help_text = _HITS_HELP if entry is not None else _MISSES_HELP
            self._metrics.counter(family, help_text).inc()
        return entry.materialize() if entry is not None else None

    def put(self, key: Hashable, result: Result) -> None:
        """Store a finished (statistics-detached) result under ``key``.

        Failed queries never reach this method — the session only stores
        results whose execution returned.
        """
        entry = _Entry(result.results, result.statistics, result.shipment)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            size = len(self._entries)
        if self._metrics is not None:
            self._metrics.gauge(SIZE_FAMILY, _SIZE_HELP).set(size)

    def clear(self) -> None:
        """Drop every entry (the hit/miss counters keep accumulating)."""
        with self._lock:
            self._entries.clear()
        if self._metrics is not None:
            self._metrics.gauge(SIZE_FAMILY, _SIZE_HELP).set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def describe(self) -> dict:
        """Occupancy and hit accounting, mirroring ``PlanCache.describe()``."""
        with self._lock:
            size = len(self._entries)
        return {
            "size": size,
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 3),
        }
