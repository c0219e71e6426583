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
what it sent, fans site tasks out, and turns a failed task or a site dying
mid-shipment into recovery or degradation.  A new per-stage concern (a
deadline check, a site-skew attribute) therefore goes *here*, once — never
into a stage body.

The run is created per execution and dropped with it: engines are shared by
concurrent queries and keep no per-query state of their own.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, ContextManager, Iterator, List, Mapping, Optional, Sequence, Set

from ..exec import SiteTask, SiteTaskResult, run_site_task, run_site_tasks
from ..faults import FaultPlan, RetryPolicy, ShipmentFaultInjector, SiteDownError
from ..obs import CATEGORY_COORDINATOR, Span, StageProfiler, Trace, stage_scope
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import ResultSet, Row
from ..sparql.query_graph import QueryGraph
from .cluster import Cluster
from .network import COORDINATOR, StageTimer
from .result import Result
from .stats import QueryStatistics, StageStats


@dataclass
class Run:
    """Everything one ``execute()`` call owns (never shared across queries).

    ``site_options`` and the fault fields are only set by the gStoreD
    engine; the comparison systems run their site work inline and take no
    fault plan.  ``plan is None`` for fault-free runs, in which case every
    fault counter stays zero.
    """

    cluster: Cluster
    query: SelectQuery
    stats: QueryStatistics
    query_graph: Optional[QueryGraph] = None
    trace: Optional[Trace] = None
    profiler: Optional[StageProfiler] = None
    #: Planner settings a dead site is rebuilt with (``Cluster.rebuild_site``).
    site_options: Mapping[str, object] = field(default_factory=dict)
    plan: Optional[FaultPlan] = None
    #: Transient-failure budget of every task (the plan's own by default).
    retry: Optional[RetryPolicy] = None
    timer: StageTimer = field(default_factory=StageTimer)
    lost_sites: Set[int] = field(default_factory=set)
    task_retries: int = 0
    site_failures: int = 0
    site_recoveries: int = 0

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
            partitioning=cluster.partitioned_graph.strategy,
        )
        return cls(cluster, query, stats, **fields)

    @contextmanager
    def stage(self, name: str, **span_attrs) -> Iterator["Stage"]:
        """Run one pipeline stage: statistics record, span, profile, then the fold.

        Entered once per stage.  On a clean exit the span gets the stage's
        shipment, the per-site and coordinator times measured during the
        stage are copied into its statistics, and the shipped bytes/messages
        are converted into modelled transfer time; an exception skips all
        three and propagates.
        """
        stats = self.stats.stage(name)
        with stage_scope(self.trace, self.profiler, name, **span_attrs) as span:
            yield Stage(self, name, stats, span)
            if span is not None:
                span.set(shipped_bytes=stats.shipped_bytes, messages=stats.messages)
        stats.site_times_s.update(self.timer.site_times(name))
        stats.coordinator_time_s += self.timer.elapsed(name, COORDINATOR)
        stats.network_time_s = self.cluster.network.transfer_time(
            stats.shipped_bytes, stats.messages
        )

    def live_site_ids(self) -> List[int]:
        """The fan-out order (ascending site id) minus the sites this run has lost."""
        ids = sorted(self.cluster.site_ids)
        if not self.lost_sites:
            return ids
        return [site_id for site_id in ids if site_id not in self.lost_sites]

    @contextmanager
    def fault_scope(self) -> Iterator[None]:
        """Arm the plan's shipment faults for the block, then fold the bookkeeping.

        Statistics keys are only written when fault injection was active, so
        a clean run's work counters and table columns stay byte-identical to
        the pre-fault-layer engine.  ``work`` carries the recovery counters
        (not table columns); ``extra`` carries the degradation verdict, which
        surfaces as ``Result.degraded`` / ``Result.missing_sites``.
        """
        if self.plan is None:
            yield
            return
        with self.cluster.bus.fault_scope(ShipmentFaultInjector(self.plan)):
            yield
        stats = self.stats
        stats.work["task_retries"] = self.task_retries
        stats.work["site_failures"] = self.site_failures
        stats.work["site_recoveries"] = self.site_recoveries
        if self.lost_sites:
            missing = sorted(self.lost_sites)
            stats.extra["degraded"] = True
            stats.extra["missing_sites"] = missing
            stats.extra["warning"] = (
                "partial results: site(s) "
                + ", ".join(str(site_id) for site_id in missing)
                + " lost and unrecoverable; matches needing their fragments are missing"
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
    def ship(self, source: int, destination: int, kind: str, payload: object) -> Optional[int]:
        """Send one payload over the bus and count it; the bytes shipped.

        A site can die *while shipping* (the bus-level kill of
        :class:`~repro.faults.ShipmentFaultInjector` fires before any byte is
        recorded).  Recoverable: rebuild the site and re-send — the retried
        shipment carries identical bytes, so the ledger matches a clean run;
        the loop survives a plan scheduling several deaths of the same site
        (each recoverable entry fires once, so it terminates).  Unrecoverable:
        mark the site lost and return ``None``; nothing was shipped or
        counted, exactly as if the machine vanished mid-transfer.
        """
        run = self.run
        while True:
            try:
                shipped = run.cluster.bus.send(source, destination, kind, payload, self.name)
            except SiteDownError as error:
                run.site_failures += 1
                if not error.recoverable:
                    run.lost_sites.add(source)
                    return None
                run.cluster.rebuild_site(source, **run.site_options)
                run.site_recoveries += 1
                continue
            self.stats.shipped_bytes += shipped
            self.stats.messages += 1
            return shipped

    def broadcast(self, source: int, destinations: List[int], kind: str, payload: object) -> None:
        """Send the same payload to every destination, one counted message each."""
        shipped = self.run.cluster.bus.broadcast(source, destinations, kind, payload, self.name)
        self.stats.shipped_bytes += shipped
        self.stats.messages += len(destinations)

    # -- timing --------------------------------------------------------------
    def measure(self, site_id: int = COORDINATOR) -> ContextManager[None]:
        """Time a block of coordinator work (or of one site's inline work)."""
        return self.run.timer.measure(self.name, site_id)

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
        here, serially.

        The run's fault plan and retry policy go to the runner, and failed
        results are resolved here — still in the serial, ``site_id``-ordered
        merge, which is what keeps recovery deterministic: a
        dead-but-recoverable site is rebuilt from its fragment and its task
        re-executed, an unrecoverable site is marked lost and its result
        dropped.  Only results that survive (including recovered ones) reach
        the stage timers — and a retried task contributes the successful
        attempt's time alone.
        """
        run = self.run
        trace = run.trace
        results = run_site_tasks(tasks, run.cluster, run.plan, run.retry)
        merged: List[SiteTaskResult] = []
        for task, result in zip(tasks, results):
            if result.failure is not None:
                result = self._recover(task, result)
                if result is None:
                    continue
            if result.attempts > 1:
                run.task_retries += result.attempts - 1
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
            merged.append(result)
        return merged

    def _recover(self, task: SiteTask, failed: SiteTaskResult) -> Optional[SiteTaskResult]:
        """Turn a failed task result into recovery or degradation.

        Returns the recovery re-run's result on a recoverable site death, or
        ``None`` when the site is unrecoverable — it is then recorded in
        ``run.lost_sites`` and the caller drops it from the merge.
        """
        run = self.run
        run.site_failures += 1
        run.task_retries += failed.attempts - 1
        if not failed.failure.recoverable:
            run.lost_sites.add(failed.site_id)
            return None
        site = run.cluster.rebuild_site(failed.site_id, **run.site_options)
        rerun = run_site_task(replace(task, attempt=1, recovery=True), site, run.plan, run.retry)
        if rerun.failure is not None:
            run.lost_sites.add(failed.site_id)
            return None
        run.site_recoveries += 1
        return rerun
