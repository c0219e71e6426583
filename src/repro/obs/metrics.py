"""Metrics registry: counters, gauges and histograms with Prometheus export.

A :class:`MetricsRegistry` is a process-local, lock-guarded collection of
named metric families.  Each family is typed (counter / gauge / histogram)
and label-aware: ``registry.counter("repro_messages_total", stage="assembly")``
returns the series for that label set, creating it on first use.  Two read
paths exist:

* :meth:`MetricsRegistry.snapshot` — a plain nested dict, stable enough to
  assert against in tests and to attach to bench JSON;
* :meth:`MetricsRegistry.prometheus_text` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` + samples), so ``repro query --metrics``
  output can be scraped or diffed directly.

The catalog of families the session layer feeds (via :func:`record_query`)
is documented in ``docs/observability.md``; nothing in the engines writes
metrics directly — they keep producing :class:`~repro.distributed.stats.QueryStatistics`,
and the session translates those into metric updates after each query.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default histogram buckets (seconds) — tuned for per-stage wall clock of
#: the simulated workloads, which spans microseconds to a few seconds.
DEFAULT_BUCKETS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value (one label set of a counter family)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (one label set of a gauge family)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current value."""
        with self._lock:
            return self._value


class Histogram:
    """A bucketed distribution (one label set of a histogram family)."""

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def cumulative_counts(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``inf``."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out


class MetricsRegistry:
    """A typed, label-aware collection of metric families.

    Families are created on first use through :meth:`counter`, :meth:`gauge`
    and :meth:`histogram`; re-using a family name with a different type
    raises :class:`ValueError`.  Each (kind, name, labels) series is resolved
    under the registry lock once; later calls return its handle from a dict
    lookup (label values must be hashable).  Every series guards its own
    value, so queries on several serving threads can record while a scraper
    formats :meth:`prometheus_text`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> (type, help, {label_key: series})
        self._families: Dict[str, Tuple[str, str, Dict[_LabelKey, Any]]] = {}
        # (kind, name, *label items as passed) -> series: each series is
        # resolved (label key sorted, kind checked) once, then read lock-free.
        self._handles: Dict[tuple, Any] = {}

    def _series(self, kind: str, name: str, help_text: str, labels: Dict[str, Any], factory):
        handle = (kind, name, *labels.items())
        series = self._handles.get(handle)
        if series is not None:
            return series
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (kind, help_text, {})
                self._families[name] = family
            elif family[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family[0]}, not {kind}"
                )
            key = _label_key(labels)
            series = family[2].get(key)
            if series is None:
                series = factory()
                family[2][key] = series
            # Stored under the lock, so a concurrent reset() never leaves a
            # handle to a dropped series behind.
            self._handles[handle] = series
            return series

    def counter(self, name: str, help_text: str = "", **labels: Any) -> Counter:
        """Get or create the :class:`Counter` for ``name`` + label set."""
        return self._series("counter", name, help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "", **labels: Any) -> Gauge:
        """Get or create the :class:`Gauge` for ``name`` + label set."""
        return self._series("gauge", name, help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """Get or create the :class:`Histogram` for ``name`` + label set."""
        return self._series(
            "histogram", name, help_text, labels, lambda: Histogram(buckets)
        )

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All families as a plain nested dict (stable for tests/bench JSON).

        Shape: ``{family: {"type", "help", "series": {label_str: value}}}``
        where a histogram's value is ``{"count", "sum", "buckets"}`` and
        ``label_str`` renders as ``k=v,k2=v2`` (empty string for no labels).
        """
        with self._lock:
            families = {
                name: (kind, help_text, dict(series))
                for name, (kind, help_text, series) in self._families.items()
            }
        out: Dict[str, Dict[str, Any]] = {}
        for name in sorted(families):
            kind, help_text, series = families[name]
            rendered: Dict[str, Any] = {}
            for key in sorted(series):
                label_str = ",".join(f"{k}={v}" for k, v in key)
                metric = series[key]
                if kind == "histogram":
                    rendered[label_str] = {
                        "count": metric.count,
                        "sum": metric.sum,
                        "buckets": [
                            [bound, count]
                            for bound, count in metric.cumulative_counts()
                        ],
                    }
                else:
                    rendered[label_str] = metric.value
            out[name] = {"type": kind, "help": help_text, "series": rendered}
        return out

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            families = {
                name: (kind, help_text, dict(series))
                for name, (kind, help_text, series) in self._families.items()
            }
        lines: List[str] = []
        for name in sorted(families):
            kind, help_text, series = families[name]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(series):
                labels = "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}" if key else ""
                metric = series[key]
                if kind == "histogram":
                    for bound, count in metric.cumulative_counts():
                        le = "+Inf" if bound == float("inf") else _format_number(bound)
                        bucket_labels = list(key) + [("le", le)]
                        rendered = "{" + ",".join(f'{k}="{v}"' for k, v in bucket_labels) + "}"
                        lines.append(f"{name}_bucket{rendered} {count}")
                    lines.append(f"{name}_sum{labels} {_format_number(metric.sum)}")
                    lines.append(f"{name}_count{labels} {metric.count}")
                else:
                    lines.append(f"{name}{labels} {_format_number(metric.value)}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every family, and every resolved handle (tests and long-lived sessions)."""
        with self._lock:
            self._families.clear()
            self._handles.clear()


def _format_number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def record_query(
    registry: MetricsRegistry,
    statistics,
    *,
    shipment=None,
    engine: str = "",
    encoded_rebuilds: Optional[int] = None,
    encoded_patches: Optional[int] = None,
) -> None:
    """Translate one finished query's statistics into metric updates.

    Called by the session layer (and the CLI) after each query; this is the
    single writer of the catalog families, so the engines stay
    metrics-agnostic.  ``shipment`` is an optional
    :class:`~repro.distributed.network.ShipmentSnapshot` supplying the
    per-kind byte breakdown the stage stats don't carry.
    """
    registry.counter(
        "repro_queries_total", "Queries executed, by engine.", engine=engine or "unknown"
    ).inc()
    if encoded_rebuilds is not None:
        registry.gauge(
            "repro_encoded_graph_rebuilds",
            "EncodedGraph rebuilds observed in this process so far.",
        ).set(encoded_rebuilds)
    if encoded_patches is not None:
        registry.gauge(
            "repro_encoded_graph_patches",
            "EncodedGraph in-place delta patches observed in this process so far.",
        ).set(encoded_patches)
    if statistics is None:
        return
    # The plan-cache families exist (at zero) even for queries that never
    # planned (star shortcut, planner-off configs) so scrapes always see them.
    hits_counter = registry.counter(
        "repro_plan_cache_hits_total", "Coordinator plan-cache hits."
    )
    misses_counter = registry.counter(
        "repro_plan_cache_misses_total", "Coordinator plan-cache misses."
    )
    for stage in getattr(statistics, "stages", ()):
        if "plan_cache_hit" not in stage.counters:
            continue
        hit = stage.counters["plan_cache_hit"]
        hits_counter.inc(hit)
        misses_counter.inc(1 - hit if hit in (0, 1) else 0)
    work = getattr(statistics, "work", {}) or {}
    registry.counter(
        "repro_search_steps_total",
        "Matcher search steps across all sites (paper's work metric).",
    ).inc(work.get("search_steps", 0))
    # Always present, even at zero, so scrapes and the CI smoke jobs can
    # assert on it unconditionally.
    registry.counter(
        "repro_kernel_intersections_total",
        "Candidate-column intersections performed by the matching kernel.",
    ).inc(work.get("kernel_intersections", 0))
    for stage in getattr(statistics, "stages", ()):  # StageStats
        registry.counter(
            "repro_shipped_bytes_total",
            "Simulated bytes shipped between sites, by pipeline stage.",
            stage=stage.name,
        ).inc(stage.shipped_bytes)
        registry.counter(
            "repro_messages_total",
            "Simulated messages exchanged, by pipeline stage.",
            stage=stage.name,
        ).inc(stage.messages)
        registry.counter(
            "repro_site_tasks_total",
            "Per-site tasks executed, by pipeline stage.",
            stage=stage.name,
        ).inc(len(stage.site_times_s))
        registry.histogram(
            "repro_stage_seconds",
            "Per-stage wall clock (coordinator-perceived parallel time).",
            stage=stage.name,
        ).observe(stage.parallel_time_s)
    if shipment is not None:
        for kind, size in sorted(shipment.bytes_by_kind.items()):
            registry.counter(
                "repro_shipped_bytes_by_kind_total",
                "Simulated bytes shipped, by message kind.",
                kind=kind,
            ).inc(size)


def record_query_failure(registry: MetricsRegistry, *, engine: str = "", backend: str = "") -> None:
    """Count one query that raised instead of returning a result.

    The exception-path twin of :func:`record_query`: the session layer calls
    it from the ``except`` arm of ``Session.query()`` so failed executions
    still leave a metrics footprint (``repro_query_failures_total``) instead
    of silently vanishing from the scrape.
    """
    registry.counter(
        "repro_query_failures_total",
        "Queries that raised instead of returning a result, by engine.",
        engine=engine or "unknown",
        backend=backend or "unknown",
    ).inc()
