"""Structured per-query tracing.

A :class:`Tracer` produces one :class:`Trace` per query.  A trace is a tree
of :class:`Span` records — ``parse``, ``plan`` (with its ``plan_cache``
probe), one span per pipeline stage, one span per per-site
:class:`~repro.exec.SiteTask` and one per coordinator-side join — annotated
with the same accounting the statistics carry (shipped bytes, messages,
search steps).  Traces export two ways:

* :meth:`Trace.to_chrome` — Chrome trace-event JSON (the ``traceEvents``
  array format), loadable in Perfetto / ``chrome://tracing``; sites render
  as separate tracks so the fan-out of every stage is visible at a glance;
* :meth:`Trace.summary` — a plain indented text tree for terminals and logs.

Site spans are measured in-process: the site-task runner times each handler
on the coordinator's ``perf_counter`` clock, and the engine's deterministic
serial merge adds each ``site:{id}`` span under its stage span from those
numbers via :meth:`Trace.add_site_span`.

Tracing is strictly opt-in and zero-cost when off: with no trace object in
play the engines allocate nothing and take no extra branches beyond a
``None`` check, and a trace never alters control flow — answers,
``search_steps`` and shipment fingerprints are bit-identical with tracing on
or off (enforced by ``tests/exec/test_determinism.py`` and the Hypothesis
equivalence suites).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

#: Chrome ``tid`` used for coordinator-side spans; per-site task spans render
#: on track ``SITE_TRACK_OFFSET + site_id``.
COORDINATOR_TRACK = 0
SITE_TRACK_OFFSET = 1

#: Span categories of the taxonomy (``docs/observability.md``).
CATEGORY_QUERY = "query"
CATEGORY_PLANNING = "planning"
CATEGORY_STAGE = "stage"
CATEGORY_TASK = "task"
CATEGORY_COORDINATOR = "coordinator"

_TRACE_IDS = itertools.count(1)


@dataclass
class Span:
    """One node of a trace: a named, categorized, timed interval.

    ``start_s`` is relative to the owning trace's origin; ``duration_s`` is
    filled when the span closes.  ``track`` selects the Chrome/Perfetto lane
    (coordinator vs per-site).  ``attrs`` carries the span's accounting
    (shipped bytes, messages, search steps, cache hits, ...).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_s: float
    duration_s: float = 0.0
    track: int = COORDINATOR_TRACK
    attrs: Dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attribute key/values; returns ``self``."""
        self.attrs.update(attrs)
        return self


class Trace:
    """The span tree of one query execution.

    Create through :meth:`Tracer.start_trace`.  Spans nest through the
    :meth:`span` context manager (a stack tracks the open parent); per-site
    task spans are added through :meth:`add_site_span`.  Access is
    lock-guarded so concurrent writers can never corrupt the tree, although
    by design all span mutation happens in the coordinator's serial merge.
    """

    def __init__(self, name: str, **attrs: Any) -> None:
        self.trace_id = f"trace-{next(_TRACE_IDS)}"
        self.name = name
        #: Wall-clock epoch seconds when the trace began (trace metadata).
        self.started_at = time.time()
        #: The ``time.perf_counter()`` reading span offsets count from.
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stack: List[int] = []
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._finished = False
        self.root = self._open(name, CATEGORY_QUERY, attrs)

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self.origin

    def _open(self, name: str, category: str, attrs: Dict[str, Any]) -> Span:
        with self._lock:
            span = Span(
                span_id=next(self._ids),
                parent_id=self._stack[-1] if self._stack else None,
                name=name,
                category=category,
                start_s=self._now(),
                attrs=dict(attrs),
            )
            self.spans.append(span)
            self._by_id[span.span_id] = span
            self._stack.append(span.span_id)
            return span

    def _close(self, span: Span) -> None:
        with self._lock:
            span.duration_s = self._now() - span.start_s
            if self._stack and self._stack[-1] == span.span_id:
                self._stack.pop()
            elif span.span_id in self._stack:  # pragma: no cover - defensive
                self._stack.remove(span.span_id)

    @contextmanager
    def span(self, name: str, category: str = CATEGORY_STAGE, **attrs: Any) -> Iterator[Span]:
        """Open a child span of the current innermost open span."""
        span = self._open(name, category, attrs)
        try:
            yield span
        finally:
            self._close(span)

    def event(self, name: str, category: str = CATEGORY_PLANNING, **attrs: Any) -> Span:
        """Record a zero-duration marker span (e.g. the plan-cache probe)."""
        span = self._open(name, category, attrs)
        self._close(span)
        span.duration_s = 0.0
        return span

    def add_site_span(
        self, parent: Span, site_id: int, stage: str, start_s: float, duration_s: float
    ) -> Span:
        """Add one site task's ``site:{site_id}`` span under ``parent``.

        ``start_s`` is relative to :attr:`origin`, like every span's; the
        span renders on the site's own track.
        """
        with self._lock:
            span = Span(
                span_id=next(self._ids),
                parent_id=parent.span_id,
                name=f"site:{site_id}",
                category=CATEGORY_TASK,
                start_s=start_s,
                duration_s=duration_s,
                track=SITE_TRACK_OFFSET + site_id,
                attrs={"site_id": site_id, "stage": stage},
            )
            self.spans.append(span)
            self._by_id[span.span_id] = span
        return span

    def finish(self, **attrs: Any) -> "Trace":
        """Close the root span (idempotent) and stamp final attributes."""
        self.root.set(**attrs)
        if not self._finished:
            self._finished = True
            # Close any span left open (errors unwound past a with-block
            # would have closed theirs; this is the normal root close).
            with self._lock:
                open_ids = list(self._stack)
            for span_id in reversed(open_ids):
                self._close(self._by_id[span_id])
        return self

    @property
    def duration_s(self) -> float:
        """Root span duration (the traced query's end-to-end wall clock)."""
        return self.root.duration_s

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def find_spans(self, category: Optional[str] = None, name: Optional[str] = None) -> List[Span]:
        """Spans filtered by category and/or exact name, in creation order."""
        with self._lock:
            return [
                span
                for span in self.spans
                if (category is None or span.category == category)
                and (name is None or span.name == name)
            ]

    def children(self, span: Span) -> List[Span]:
        """Direct children of ``span``, in creation order."""
        with self._lock:
            return [child for child in self.spans if child.parent_id == span.span_id]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome(self) -> Dict[str, Any]:
        """The trace as a Chrome trace-event JSON object.

        The returned dict serializes to a Perfetto-loadable document: an
        ``X`` (complete) event per span with microsecond ``ts``/``dur``,
        one ``pid`` per trace, sites on their own named ``tid`` tracks, and
        span attributes under ``args``.
        """
        events: List[Dict[str, Any]] = []
        tracks = {COORDINATOR_TRACK: "coordinator"}
        for span in self.spans:
            if span.track not in tracks:
                tracks[span.track] = f"site {span.track - SITE_TRACK_OFFSET}"
        for track, label in sorted(tracks.items()):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": track,
                    "args": {"name": label},
                }
            )
        for span in self.spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": round(span.start_s * 1_000_000, 3),
                    "dur": round(max(span.duration_s, 0.0) * 1_000_000, 3),
                    "pid": 1,
                    "tid": span.track,
                    "args": dict(span.attrs),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_id": self.trace_id,
                "name": self.name,
                "started_at": self.started_at,
            },
        }

    def save(self, path: str) -> str:
        """Write :meth:`to_chrome` JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle, indent=1)
            handle.write("\n")
        return path

    def summary(self) -> str:
        """The span tree as indented text, durations in milliseconds."""
        lines: List[str] = []

        def render(span: Span, depth: int) -> None:
            attrs = ""
            if span.attrs:
                rendered = ", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
                attrs = f"  [{rendered}]"
            lines.append(
                f"{'  ' * depth}{span.name} ({span.duration_s * 1000.0:.3f} ms){attrs}"
            )
            for child in self.children(span):
                render(child, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Trace {self.trace_id} {self.name!r} spans={len(self.spans)}>"


class Tracer:
    """Factory and collector of per-query :class:`Trace` objects.

    A session-owned tracer keeps every trace it started (``tracer.traces``,
    most recent last) so a workload's traces can be inspected or exported
    after the fact.
    """

    def __init__(self) -> None:
        self.traces: List[Trace] = []
        self._lock = threading.Lock()

    def start_trace(self, name: str, **attrs: Any) -> Trace:
        """Begin (and retain) a new trace whose root span is ``name``."""
        trace = Trace(name, **attrs)
        with self._lock:
            self.traces.append(trace)
        return trace

    @property
    def last(self) -> Optional[Trace]:
        """The most recently started trace, or ``None``."""
        with self._lock:
            return self.traces[-1] if self.traces else None

    def clear(self) -> None:
        """Forget every retained trace."""
        with self._lock:
            self.traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self.traces)


def record_statistics_spans(trace: Trace, statistics) -> None:
    """Reconstruct stage/site spans from a finished :class:`QueryStatistics`.

    Engines that bypass the staged instrumentation (the fixed-strategy
    baselines) still produce per-stage timings and per-site times; this
    helper synthesizes the corresponding spans after the fact, laid out
    sequentially per the simulation's response-time model.  Synthesized
    spans carry ``synthesized=True`` so consumers can tell them from
    measured ones.
    """
    cursor = trace._now()
    for stage in statistics.stages:
        duration = stage.parallel_time_s
        with trace.span(
            f"stage:{stage.name}",
            category=CATEGORY_STAGE,
            synthesized=True,
            shipped_bytes=stage.shipped_bytes,
            messages=stage.messages,
        ) as span:
            pass
        span.start_s = cursor
        span.duration_s = duration
        for site_id, seconds in sorted(stage.site_times_s.items()):
            site_span = trace.add_site_span(span, site_id, stage.name, span.start_s, seconds)
            site_span.set(synthesized=True)


def validate_chrome_trace(payload: Any) -> List[Dict[str, Any]]:
    """Validate a Chrome trace-event document; return its complete events.

    Raises :class:`ValueError` describing the first violation.  The checks
    cover what Perfetto needs to load the file: a ``traceEvents`` array,
    ``X`` events with numeric non-negative ``ts``/``dur``, string
    ``name``/``cat``, integer ``pid``/``tid``, and dict ``args``.  Used by
    the trace schema tests and the CI ``obs-smoke`` job.
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("chrome trace must be an object with a 'traceEvents' array")
    events = payload["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty array")
    complete: List[Dict[str, Any]] = []
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: events must be objects")
        phase = event.get("ph")
        if phase not in ("X", "M"):
            raise ValueError(f"{where}: unsupported phase {phase!r} (expected 'X' or 'M')")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: 'name' must be a non-empty string")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: {key!r} must be an integer")
        if phase == "M":
            continue
        if not isinstance(event.get("cat"), str) or not event["cat"]:
            raise ValueError(f"{where}: 'cat' must be a non-empty string")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"{where}: {key!r} must be a non-negative number")
        if not isinstance(event.get("args"), dict):
            raise ValueError(f"{where}: 'args' must be an object")
        complete.append(event)
    if not complete:
        raise ValueError("trace contains no complete ('X') events")
    return complete
