"""The execution spine: one run object per ``execute()``, one stage runner.

Every distributed evaluator — the gStoreD pipeline and the four comparison
systems — tells its strategy as a sequence of stages over one :class:`Run`::

    run = Run.start(engine_name, cluster, query, query_name, dataset)
    with run.stage("partial_evaluation") as stage:
        for result in stage.fan_out(tasks):            # site work, timed per site
            stage.ship(result.site_id, COORDINATOR, "local_matches", result.value)
        with stage.measure():                          # coordinator work
            ...
        stage.count(local_matches=...)
    return run.result(rows)

:meth:`Run.stage` is the only place that opens the stage's statistics record
and its span / profile capture, and on exit folds the measured site and
coordinator times, charges the network model and stamps the shipment onto
the span.  :class:`Stage` is the only code that sends on the bus and counts
what it sent and fans site tasks out; a failing site task ends the run with
a :class:`~repro.exec.SiteTaskError`.  A new per-stage concern (a deadline
check, a site-skew attribute) therefore goes *here*, once — never into a
stage body.

The run is created per execution and dropped with it: engines are shared by
concurrent queries and keep no per-query state of their own.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence

from ..exec import SiteTask, SiteTaskResult, run_site_tasks
from ..obs import CATEGORY_COORDINATOR, Span, StageProfiler, Trace, stage_scope
from ..sparql.algebra import BasicGraphPattern, SelectQuery
from ..sparql.bindings import ResultSet, Row
from ..sparql.query_graph import QueryGraph
from .cluster import Cluster
from .network import COORDINATOR, StageTimer
from .result import Result
from .stats import QueryStatistics, StageStats


@dataclass
class Run:
    """Everything one ``execute()`` call owns (never shared across queries)."""

    cluster: Cluster
    query: SelectQuery
    stats: QueryStatistics
    query_graph: Optional[QueryGraph] = None
    trace: Optional[Trace] = None
    profiler: Optional[StageProfiler] = None
    timer: StageTimer = field(default_factory=StageTimer)

    @classmethod
    def start(
        cls,
        engine_name: str,
        cluster: Cluster,
        query: SelectQuery,
        query_name: str = "",
        dataset: str = "",
        **fields,
    ) -> "Run":
        """A run of ``query`` with fresh statistics labelled for ``engine_name``."""
        stats = QueryStatistics(
            query_name=query_name,
            engine=engine_name,
            dataset=dataset,
            partitioning=cluster.strategy,
        )
        return cls(cluster, query, stats, **fields)

    def component(self, bgp: BasicGraphPattern) -> "Run":
        """A run of one connected component of the query, ``SELECT *`` over ``bgp``.

        It adds into this run's statistics, trace and profiler, so shipments,
        counters and stage times of every component sum up; it times its
        stages on its own timer, because :meth:`stage` folds the whole timer.
        """
        return Run(
            self.cluster,
            SelectQuery(bgp),
            self.stats,
            QueryGraph.of(bgp),
            self.trace,
            self.profiler,
        )

    @contextmanager
    def stage(self, name: str, **span_attrs) -> Iterator["Stage"]:
        """Run one pipeline stage: statistics record, span, profile, then the fold.

        Entered once per stage of a run.  On a clean exit the span gets what
        the stage shipped while it was open, the per-site and coordinator
        times measured during the stage are added to its statistics, and the shipped bytes/messages
        are converted into modelled transfer time; an exception skips all
        three and propagates.
        """
        stats = self.stats.stage(name)
        shipped, messages = stats.shipped_bytes, stats.messages
        with stage_scope(self.trace, self.profiler, name, **span_attrs) as span:
            yield Stage(self, name, stats, span)
            if span is not None:
                span.set(
                    shipped_bytes=stats.shipped_bytes - shipped, messages=stats.messages - messages
                )
        for site_id, seconds in self.timer.site_times(name).items():
            stats.record_site_time(site_id, seconds)
        stats.coordinator_time_s += self.timer.elapsed(name, COORDINATOR)
        stats.network_time_s = self.cluster.network.transfer_time(
            stats.shipped_bytes, stats.messages
        )

    def result(self, rows: List[Row]) -> Result:
        """The run's :class:`Result`: the distinct ``rows`` (in projection order), limited."""
        query = self.query
        rows = list(dict.fromkeys(rows))[: query.limit]
        limited = ResultSet(variables=query.effective_projection, rows=rows)
        self.stats.num_results = len(limited)
        return Result(limited, self.stats)


def _ignore_outcome(outcome: object) -> None:
    """What :meth:`Stage.join` yields with tracing off."""


class Stage:
    """The handle a stage body works through (see :meth:`Run.stage`)."""

    __slots__ = ("run", "name", "stats", "span")

    def __init__(self, run: Run, name: str, stats: StageStats, span: Optional[Span]) -> None:
        self.run = run
        self.name = name
        #: The stage's statistics record; baselines add their platform cost here.
        self.stats = stats
        #: The open stage span, or ``None`` with tracing off.
        self.span = span

    # -- shipment ------------------------------------------------------------
    def ship(self, source: int, destination: int, kind: str, payload: object) -> int:
        """Send one payload over the bus and count it; the bytes shipped."""
        shipped = self.run.cluster.bus.send(source, destination, kind, payload, self.name)
        self.stats.shipped_bytes += shipped
        self.stats.messages += 1
        return shipped

    def broadcast(self, source: int, destinations: List[int], kind: str, payload: object) -> None:
        """Send the same payload to every destination, one counted message each."""
        shipped = self.run.cluster.bus.broadcast(source, destinations, kind, payload, self.name)
        self.stats.shipped_bytes += shipped
        self.stats.messages += len(destinations)

    # -- timing --------------------------------------------------------------
    @contextmanager
    def measure(self, site_id: int = COORDINATOR) -> Iterator[None]:
        """Time a block of coordinator work, or of one site's inline work.

        When tracing, a site's block gets a measured ``site:{id}`` span under
        the stage span, one per block.
        """
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            run = self.run
            run.timer.record(self.name, site_id, elapsed)
            if run.trace is not None and site_id != COORDINATOR:
                run.trace.add_site_span(
                    self.span, site_id, self.name, started - run.trace.origin, elapsed
                )

    @contextmanager
    def join(self) -> Iterator[Callable[[object], None]]:
        """Time a coordinator join under a ``coordinator`` child span.

        Yields a callback that takes the join's outcome and copies its
        counters onto the span, so the stage's time is attributed at the
        granularity of its site task spans; with tracing off the callback
        does nothing.
        """
        trace = self.run.trace
        with self.measure():
            if trace is None:
                yield _ignore_outcome
                return
            with trace.span("coordinator", CATEGORY_COORDINATOR) as span:
                yield lambda outcome: span.set(
                    join_attempts=outcome.join_attempts,
                    groups=outcome.groups,
                    index_size=outcome.index_size,
                )

    def count(self, **counters: int) -> None:
        """Add to the stage's counters, in keyword order."""
        for name, value in counters.items():
            self.stats.add_counter(name, value)

    # -- site fan-out --------------------------------------------------------
    def fan_out(self, tasks: Sequence[SiteTask]) -> List[SiteTaskResult]:
        """Run the task batch and record each site's measured time.

        Results come back in submission order (the builders emit tasks in
        ascending ``site_id`` order), so the callers' merges stay
        deterministic; the handler-measured wall-clock of each task is folded
        into the run's timer here, in the serial merge, never by the tasks
        themselves.  When tracing, each task's ``site:{id}`` span is added
        under the stage span from the runner's start and elapsed time — also
        here, serially.  A task that raises ends the stage with its
        :class:`~repro.exec.SiteTaskError`.
        """
        run = self.run
        trace = run.trace
        results = run_site_tasks(tasks, run.cluster)
        for result in results:
            run.timer.record(self.name, result.site_id, result.elapsed_s)
            if trace is not None:
                span = trace.add_site_span(
                    self.span,
                    result.site_id,
                    result.stage,
                    result.started_s - trace.origin,
                    result.elapsed_s,
                )
                # Stage outputs of the matching kernel (local/partial
                # evaluation) annotate their task span with its name and
                # intersection count per site task.
                kernel = getattr(result.value, "kernel", "")
                if kernel:
                    span.set(
                        kernel=kernel,
                        kernel_intersections=getattr(result.value, "kernel_intersections", 0),
                    )
        return results
