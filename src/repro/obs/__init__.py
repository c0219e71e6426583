"""``repro.obs`` — tracing, metrics and profiling for query execution.

This package is the repo's observability layer, answering "where did this
query's time go, on which site" without re-running it:

* :mod:`repro.obs.trace` — per-query structured traces (parse/plan/stage/
  per-site-task spans) with Chrome trace-event export (Perfetto-loadable)
  and a plain summary tree.  Per-site spans are measured in-process and
  nest under their stage.
* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry` of
  counters/gauges/histograms with ``snapshot()`` and Prometheus text
  exposition; the session layer feeds it from each query's statistics.
* :mod:`repro.obs.profiling` — opt-in per-stage :mod:`cProfile` capture
  gated by ``repro.open(..., profile=True)`` or ``REPRO_PROFILE``.

Everything here is strictly additive and zero-cost when off: engines take
``trace``/``profiler`` keyword arguments defaulting to ``None`` and answers,
``search_steps`` and shipment fingerprints are bit-identical with tracing on
or off (see ``docs/observability.md`` for the overhead contract).
"""

from contextlib import contextmanager, nullcontext
from typing import Iterator, Optional

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_query,
    record_query_failure,
)
from .profiling import PROFILE_ENV, StageProfiler
from .trace import (
    CATEGORY_COORDINATOR,
    CATEGORY_PLANNING,
    CATEGORY_QUERY,
    CATEGORY_STAGE,
    CATEGORY_TASK,
    Span,
    Trace,
    Tracer,
    record_statistics_spans,
    validate_chrome_trace,
)

__all__ = [
    "CATEGORY_COORDINATOR",
    "CATEGORY_PLANNING",
    "CATEGORY_QUERY",
    "CATEGORY_STAGE",
    "CATEGORY_TASK",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROFILE_ENV",
    "Span",
    "StageProfiler",
    "Trace",
    "Tracer",
    "record_query",
    "record_query_failure",
    "record_statistics_spans",
    "stage_scope",
    "validate_chrome_trace",
]


@contextmanager
def stage_scope(
    trace: Optional[Trace],
    profiler: Optional[StageProfiler],
    stage_name: str,
    **attrs,
) -> Iterator[Optional[Span]]:
    """Open a stage span and/or a profile capture, whichever are enabled.

    The single instrumentation point the engines use around each pipeline
    stage: yields the open :class:`Span` when tracing is on (so the stage
    can attach shipment attributes before it closes) or ``None`` when off,
    and wraps the block in :meth:`StageProfiler.capture` when profiling is
    on.  With both off this is two ``None`` checks and a ``nullcontext`` —
    the zero-cost-when-off contract.
    """
    profile_cm = profiler.capture(stage_name) if profiler is not None else nullcontext()
    with profile_cm:
        if trace is None:
            yield None
        else:
            with trace.span(f"stage:{stage_name}", CATEGORY_STAGE, **attrs) as span:
                yield span
