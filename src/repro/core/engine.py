"""The gStoreD engine: partial evaluation and assembly over a simulated cluster.

:class:`GStoreDEngine` orchestrates the full pipeline of the paper on top of
one :class:`~repro.distributed.Cluster`:

1. *Initialization / candidate exchange* (optional, Algorithm 4): sites
   compress their internal candidate sets into bit vectors, the coordinator
   ORs them and broadcasts the union.
2. *Partial evaluation*: every site enumerates (a) its fragment-local
   complete matches and (b) its local partial matches (Definition 5),
   filtering extended candidates with the stage-1 bit vectors.
3. *LEC feature-based pruning* (optional, Algorithms 1-2): sites compress
   LPMs into LEC features, the coordinator joins the features and reports
   which ones can contribute to a complete match; the sites drop the rest.
4. *Assembly* (Algorithm 3 or the ungrouped join of [18]): the surviving
   LPMs are shipped to the coordinator and joined into crossing matches,
   which are merged with the fragment-local matches.

Star queries are answered purely locally when ``star_shortcut`` is enabled —
every match of a star query is contained in a single fragment because
crossing edges are replicated — which reproduces the zero-cost optimization
rows of the paper's Tables I-III.

Every stage's wall-clock time (per site and for the coordinator) and every
inter-site message is recorded in a :class:`~repro.distributed.QueryStatistics`,
from which the benchmark harness rebuilds the paper's tables.

Execution model: each stage expresses its per-site body as a picklable
:class:`~repro.exec.SiteTask` descriptor (``(site_id, stage, payload)``; the
module-level handlers live in :mod:`repro.core.site_tasks`) and fans the
batch out through an :class:`~repro.exec.ExecutorBackend` —
``EngineConfig.executor`` selects serial, threaded or process execution.
Handlers only touch their own site and their explicit payload; all
shared-state mutation — message-bus sends, statistics accumulation, stage
timing — happens afterwards in a serial merge over the results in
``site_id`` order, so answers and shipment accounting are bit-identical
whatever the backend or worker count.  (Process workers bootstrap their own
copy of every site from serialized fragments; see :mod:`repro.exec.worker`.)
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..distributed.cluster import Cluster
from ..distributed.network import COORDINATOR, StageTimer
from ..distributed.stats import QueryStatistics
from ..exec import ExecutorBackend, SiteTask, SiteTaskResult, make_backend, run_site_task
from ..faults import FaultPlan, RetryPolicy, ShipmentFaultInjector, SiteDownError
from ..obs import CATEGORY_COORDINATOR, CATEGORY_PLANNING, StageProfiler, Trace, stage_scope
from ..planner.plan import QueryPlan
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import Binding, ResultSet
from ..sparql.query_graph import QueryGraph
from ..store import finalize_matches
from .assembly import AssemblyOutcome, assemble_matches
from .candidate_exchange import GlobalCandidateFilter, union_site_vectors
from .config import EngineConfig
from .lec import LECFeature
from .partial_match import LocalPartialMatch
from .pruning import prune_features
from .site_tasks import (
    candidate_vector_tasks,
    lec_feature_tasks,
    lec_filter_tasks,
    local_eval_tasks,
    partial_eval_tasks,
)

#: Stage names used consistently in statistics, tables and tests.
STAGE_PLANNING = "planning"
STAGE_CANDIDATES = "candidate_exchange"
STAGE_PARTIAL_EVAL = "partial_evaluation"
STAGE_PRUNING = "lec_pruning"
STAGE_ASSEMBLY = "assembly"


@dataclass
class _FaultContext:
    """Per-``execute()`` fault bookkeeping (never shared across queries).

    The engine object is shared by concurrent queries, so everything the
    fault layer accumulates during one execution — which sites were lost,
    how many retries and recoveries happened — lives here and is folded
    into that execution's :class:`~repro.distributed.QueryStatistics` at
    the end.  ``plan is None`` for fault-free runs, in which case every
    counter stays zero and the context is inert.
    """

    plan: Optional[FaultPlan] = None
    lost_sites: Set[int] = field(default_factory=set)
    task_retries: int = 0
    site_failures: int = 0
    site_recoveries: int = 0


@contextmanager
def _join_span(trace: Optional[Trace]):
    """Wrap a coordinator join in a ``coordinator`` child span of its stage span.

    Yields a callback that takes the join's outcome and copies its counters
    onto the span, so the stage's time is attributed at the granularity of
    its site task spans; with tracing off the callback does nothing.
    """
    if trace is None:
        yield lambda outcome: None
        return
    with trace.span("coordinator", CATEGORY_COORDINATOR) as span:
        yield lambda outcome: span.set(
            join_attempts=outcome.join_attempts, groups=outcome.groups, index_size=outcome.index_size
        )


@dataclass
class DistributedResult:
    """A query's solutions plus the execution statistics that produced them."""

    results: ResultSet
    statistics: QueryStatistics

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


class GStoreDEngine:
    """Partial-evaluation-and-assembly SPARQL engine over a simulated cluster."""

    #: This engine natively accepts ``trace``/``profiler`` keyword arguments
    #: on :meth:`execute` (the session layer checks this attribute instead of
    #: guessing from signatures; see :mod:`repro.obs`).
    supports_tracing = True

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        name: Optional[str] = None,
        backend: Optional[ExecutorBackend] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or EngineConfig.full()
        self.name = name or self.config.label
        #: Optional fault-injection schedule (see :mod:`repro.faults`): when
        #: set, every site task carries the plan, transient failures retry
        #: with ``retry`` (default: the plan's own policy), dead sites are
        #: rebuilt from their fragment payloads, and unrecoverable losses
        #: degrade the result instead of aborting the query.  ``None`` — the
        #: default — leaves the execution path byte-identical to before the
        #: fault layer existed.
        self.faults = faults
        self.retry = retry if retry is not None else (faults.retry if faults else None)
        #: How per-site stage bodies are scheduled (see :mod:`repro.exec`).
        #: An explicitly injected backend is *shared*: the caller keeps
        #: ownership and :meth:`close` leaves it running (benchmarks reuse
        #: one warm process pool across many engines this way).
        self._owns_backend = backend is None
        self.backend = backend if backend is not None else make_backend(
            self.config.executor, self.config.max_workers
        )
        #: The most recent execution's stage timer (kept for introspection
        #: and so the cluster's weak timer registry has something to clear).
        self.last_timer: Optional[StageTimer] = None
        # Sites plan their local evaluations from their own fragment's
        # statistics; the statistics and plan caches live on the stores, so
        # repeated queries (and repeated engines over the same cluster)
        # reuse them.  A planner-off engine must actively disable them —
        # stores keep planners across engine instances, and an A/B
        # comparison with a planner-on engine would otherwise be
        # contaminated.
        for site in self.cluster:
            if self.config.use_planner:
                site.enable_planner(self.config.plan_cache_size)
            else:
                site.disable_planner()


    def _charge_network(self, stage) -> None:
        """Convert the stage's shipped bytes/messages into modelled transfer time."""
        stage.network_time_s = self.cluster.network.transfer_time(stage.shipped_bytes, stage.messages)

    def _site_ids(self) -> List[int]:
        """The cluster's site ids in ascending order (the fan-out order)."""
        return sorted(self.cluster.site_ids)

    def _live_site_ids(self, ctx: Optional[_FaultContext]) -> List[int]:
        """The fan-out order minus the sites this execution has lost."""
        ids = self._site_ids()
        if ctx is None or not ctx.lost_sites:
            return ids
        return [site_id for site_id in ids if site_id not in ctx.lost_sites]

    def _site_options(self) -> Dict[str, object]:
        """Worker-side knobs for process pools (mirrors the sites' planner setup)."""
        return {
            "use_planner": self.config.use_planner,
            "plan_cache_size": self.config.plan_cache_size,
        }

    def _run_site_tasks(
        self,
        tasks: Sequence[SiteTask],
        timer: StageTimer,
        stage_name: str,
        trace: Optional[Trace] = None,
        ctx: Optional[_FaultContext] = None,
    ) -> List[SiteTaskResult]:
        """Fan the task batch out and record each site's measured time.

        Results come back in submission order (the builders emit tasks in
        ascending ``site_id`` order), so the callers' merges stay
        deterministic; the handler-measured wall-clock of each task is folded
        into the shared timer here, in the serial merge, never by the tasks
        themselves.  When tracing, the current (stage) span's context is
        stamped onto every task before the fan-out, and the worker-measured
        task spans are folded back into the trace — also here, serially.

        With an active fault plan (``ctx.plan``) the plan and retry policy
        are stamped onto every task, and failed results are resolved here —
        still in the serial, ``site_id``-ordered merge, which is what keeps
        recovery deterministic across backends: a dead-but-recoverable site
        is rebuilt from its fragment payload and its task re-executed
        inline, an unrecoverable site is marked lost and its result dropped.
        Only results that survive (including recovered ones) reach the stage
        timers — and a retried task contributes the successful attempt's
        time alone.
        """
        if trace is not None:
            context = trace.current_context()
            tasks = [replace(task, trace=context) for task in tasks]
        plan = ctx.plan if ctx is not None else None
        if plan is not None:
            retry = self.retry if self.retry is not None else plan.retry
            tasks = [replace(task, faults=plan, retry=retry) for task in tasks]
        results = self.backend.map_site_tasks(tasks, self.cluster, self._site_options())
        merged: List[SiteTaskResult] = []
        for task, result in zip(tasks, results):
            result = self._resolve_failure(task, result, ctx)
            if result is None:
                continue
            if ctx is not None and result.attempts > 1:
                ctx.task_retries += result.attempts - 1
            timer.record(stage_name, result.site_id, result.elapsed_s)
            if trace is not None and result.span is not None:
                span = trace.add_task_span(result.span)
                # Stage outputs that know which matching kernel produced them
                # (local/partial evaluation) annotate their task span, so the
                # trace shows the kernel variant and its intersection count
                # per site task.
                kernel = getattr(result.value, "kernel", "")
                if kernel:
                    span.set(
                        kernel=kernel,
                        kernel_intersections=getattr(
                            result.value, "kernel_intersections", 0
                        ),
                    )
            merged.append(result)
        return merged

    def _resolve_failure(
        self,
        task: SiteTask,
        result: SiteTaskResult,
        ctx: Optional[_FaultContext],
    ) -> Optional[SiteTaskResult]:
        """Turn a failed task result into recovery or degradation.

        Returns the surviving result — the original on success, the
        recovery re-run's on a recoverable site death — or ``None`` when the
        site is unrecoverable, in which case it is recorded in
        ``ctx.lost_sites`` and the caller drops it from the merge.
        """
        failure = result.failure
        if failure is None:
            return result
        assert ctx is not None, "task failures only occur under a fault plan"
        ctx.site_failures += 1
        ctx.task_retries += result.attempts - 1
        if not failure.recoverable:
            ctx.lost_sites.add(result.site_id)
            return None
        site = self._rebuild_site(result.site_id)
        rerun = run_site_task(replace(task, attempt=1, recovery=True), site)
        if rerun.failure is not None:
            ctx.lost_sites.add(result.site_id)
            return None
        ctx.site_recoveries += 1
        return rerun

    def _rebuild_site(self, site_id: int):
        """Re-bootstrap a dead site from its fragment payload, in place."""
        return self.cluster.rebuild_site(
            site_id,
            use_planner=self.config.use_planner,
            plan_cache_size=self.config.plan_cache_size,
        )

    def close(self) -> None:
        """Release the execution backend's worker resources (owned backends only)."""
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "GStoreDEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self,
        query: SelectQuery,
        query_name: str = "",
        dataset: str = "",
        *,
        trace: Optional[Trace] = None,
        profiler: Optional[StageProfiler] = None,
    ) -> DistributedResult:
        """Run ``query`` through the full distributed pipeline.

        ``trace``/``profiler`` are optional observability hooks (see
        :mod:`repro.obs`): when set, every stage opens a span (with per-site
        task spans reassembled from the backend fan-out) and/or a per-stage
        ``cProfile`` capture.  Both default to off and change nothing about
        evaluation — answers, ``search_steps`` and shipment accounting are
        bit-identical with or without them.
        """
        stats = QueryStatistics(
            query_name=query_name,
            engine=self.name,
            dataset=dataset,
            partitioning=self.cluster.partitioned_graph.strategy,
        )
        query_graph = QueryGraph(query.bgp)
        timer = StageTimer()
        # The engine keeps its most recent timer alive and registers it with
        # the cluster (weakly) so `Cluster.reset_network()` can clear stale
        # totals between back-to-back benchmark runs.
        self.last_timer = timer
        self.cluster.track_timer(timer)
        if self.backend.name != "serial":
            # Only non-default backends annotate the statistics — the serial
            # reference must reproduce the paper's table layouts unchanged
            # (extra keys become columns via QueryStatistics.as_row()).
            stats.extra["executor"] = self.backend.name
            stats.extra["max_workers"] = self.backend.max_workers
        if self.config.use_planner:
            # Keep the stage present (and first) even on the star path,
            # where the coordinator never plans — its zero-cost row mirrors
            # how the star shortcut zeroes the other optimization stages.
            stats.stage(STAGE_PLANNING)

        ctx = _FaultContext(plan=self.faults)
        fault_cm = (
            self.cluster.bus.fault_scope(ShipmentFaultInjector(self.faults))
            if self.faults is not None
            else nullcontext()
        )
        with fault_cm:
            if self.config.star_shortcut and query_graph.is_star():
                bindings = self._evaluate_star(query, timer, stats, ctx, trace, profiler)
            else:
                plan = self._plan_query(query_graph, timer, stats, trace, profiler)
                bindings = self._evaluate_general(
                    query, query_graph, plan, timer, stats, ctx, trace, profiler
                )
        self._finalize_faults(ctx, stats)

        results = ResultSet(bindings, query.variables)
        projected = results.project(query.effective_projection, distinct=True)
        limited = projected.limit(query.limit)
        stats.num_results = len(limited)
        stats.extra["query_shape"] = query_graph.classify_shape()
        stats.extra["selective"] = query_graph.has_selective_pattern()
        return DistributedResult(limited, stats)

    def _finalize_faults(self, ctx: _FaultContext, stats: QueryStatistics) -> None:
        """Fold one execution's fault bookkeeping into its statistics.

        Keys are only written when fault injection was active, so a clean
        run's work counters and table columns stay byte-identical to the
        pre-fault-layer engine.  ``work`` carries the recovery counters (not
        table columns); ``extra`` carries the degradation verdict, which
        surfaces as ``Result.degraded`` / ``Result.missing_sites`` at the
        API layer.
        """
        if ctx.plan is None:
            return
        stats.work["task_retries"] = ctx.task_retries
        stats.work["site_failures"] = ctx.site_failures
        stats.work["site_recoveries"] = ctx.site_recoveries
        if ctx.lost_sites:
            missing = sorted(ctx.lost_sites)
            stats.extra["degraded"] = True
            stats.extra["missing_sites"] = missing
            stats.extra["warning"] = (
                "partial results: site(s) "
                + ", ".join(str(site_id) for site_id in missing)
                + " lost and unrecoverable; matches needing their fragments are missing"
            )

    # ------------------------------------------------------------------
    # Stage 0: cost-based planning
    # ------------------------------------------------------------------
    def _plan_query(
        self,
        query_graph: QueryGraph,
        timer: StageTimer,
        stats: QueryStatistics,
        trace: Optional[Trace] = None,
        profiler: Optional[StageProfiler] = None,
    ) -> Optional[QueryPlan]:
        """Plan the query on the coordinator and record the planning stage.

        The coordinator plans over the cluster-wide aggregated statistics;
        its plan drives the partial-evaluation edge order.  The sites'
        matchers additionally plan their fragment-local work with their own
        (already enabled) planners.
        """
        if not self.config.use_planner:
            return None
        stage = stats.stage(STAGE_PLANNING)
        planner = self.cluster.coordinator_planner(self.config.plan_cache_size)
        hits_before = planner.cache.hits
        span_cm = (
            trace.span("plan", CATEGORY_PLANNING) if trace is not None else nullcontext()
        )
        profile_cm = (
            profiler.capture(STAGE_PLANNING) if profiler is not None else nullcontext()
        )
        with profile_cm, span_cm as span:
            with timer.measure(STAGE_PLANNING, COORDINATOR):
                plan = planner.plan_for(query_graph)
            cache_hit = planner.cache.hits > hits_before
            if span is not None:
                trace.event("plan_cache", CATEGORY_PLANNING, hit=cache_hit)
                span.set(
                    source=plan.source,
                    estimated_cost=round(plan.estimated_cost, 1),
                    cache_hit=cache_hit,
                )
        stage.coordinator_time_s += timer.elapsed(STAGE_PLANNING, COORDINATOR)
        stage.add_counter("plan_cache_hit", 1 if cache_hit else 0)
        stage.add_counter("planned_vertices", len(plan))
        stats.extra["plan_source"] = plan.source
        stats.extra["plan_estimated_cost"] = round(plan.estimated_cost, 1)
        stats.extra["plan_cache_hit_rate"] = round(planner.cache.hit_rate, 3)
        return plan

    # ------------------------------------------------------------------
    # Star shortcut
    # ------------------------------------------------------------------
    def _evaluate_star(
        self,
        query: SelectQuery,
        timer: StageTimer,
        stats: QueryStatistics,
        ctx: Optional[_FaultContext] = None,
        trace: Optional[Trace] = None,
        profiler: Optional[StageProfiler] = None,
    ) -> List[Binding]:
        """Evaluate a star query purely locally at every site.

        With ``config.shards_per_site > 1`` each site's search is fanned out
        as that many depth-0 frontier shards (independent site tasks over the
        same store).  The merge below reassembles each site: shard bindings
        are concatenated in shard order and finalized once, reproducing the
        unsharded site result bit for bit, and only then does *one* message
        per site hit the bus — so answers, ``search_steps`` and shipment
        accounting are identical for every shard count.
        """
        stage = stats.stage(STAGE_PARTIAL_EVAL)
        shards = max(1, self.config.shards_per_site)
        tasks = local_eval_tasks(self._live_site_ids(ctx), query, shards)
        all_bindings: List[Binding] = []
        with stage_scope(trace, profiler, STAGE_PARTIAL_EVAL, star_shortcut=True) as span:
            # Group the results by site first: tasks come back in submission
            # order (site ascending, then shard ascending), and a site whose
            # shard died unrecoverably mid-stage must not ship the shards
            # that did succeed.
            outcomes_by_site: Dict[int, List[object]] = {}
            site_order: List[int] = []
            for result in self._run_site_tasks(tasks, timer, STAGE_PARTIAL_EVAL, trace, ctx):
                if result.site_id not in outcomes_by_site:
                    outcomes_by_site[result.site_id] = []
                    site_order.append(result.site_id)
                outcomes_by_site[result.site_id].append(result.value)
            for site_id in site_order:
                if ctx is not None and site_id in ctx.lost_sites:
                    continue
                outcomes = outcomes_by_site[site_id]
                if shards == 1:
                    matches = outcomes[0].matches
                else:
                    raw = [
                        binding for outcome in outcomes for binding in outcome.matches
                    ]
                    matches = list(finalize_matches(query, raw))
                shipped = self.cluster.bus.send(
                    site_id,
                    COORDINATOR,
                    "local_matches",
                    matches,
                    STAGE_PARTIAL_EVAL,
                )
                stage.shipped_bytes += shipped
                stage.messages += 1
                all_bindings.extend(matches)
                stats.work["search_steps"] = stats.work.get("search_steps", 0) + sum(
                    outcome.search_steps for outcome in outcomes
                )
                stats.work["kernel_intersections"] = stats.work.get(
                    "kernel_intersections", 0
                ) + sum(outcome.kernel_intersections for outcome in outcomes)
            if span is not None:
                span.set(shipped_bytes=stage.shipped_bytes, messages=stage.messages)
        stage.site_times_s.update(timer.site_times(STAGE_PARTIAL_EVAL))
        self._charge_network(stage)
        stage.add_counter("local_matches", len(all_bindings))
        stage.add_counter("local_partial_matches", 0)
        # Keep the optimization stages present (at zero cost) so the table
        # rows show the same zeros as the paper does for star queries.
        stats.stage(STAGE_CANDIDATES)
        stats.stage(STAGE_PRUNING)
        stats.stage(STAGE_ASSEMBLY).add_counter("crossing_matches", 0)
        return all_bindings

    # ------------------------------------------------------------------
    # General pipeline
    # ------------------------------------------------------------------
    def _evaluate_general(
        self,
        query: SelectQuery,
        query_graph: QueryGraph,
        plan: Optional[QueryPlan],
        timer: StageTimer,
        stats: QueryStatistics,
        ctx: Optional[_FaultContext] = None,
        trace: Optional[Trace] = None,
        profiler: Optional[StageProfiler] = None,
    ) -> List[Binding]:
        candidate_filter = self._candidate_exchange(
            query_graph, timer, stats, ctx, trace, profiler
        )
        local_bindings, lpms_by_site = self._partial_evaluation(
            query, query_graph, plan, candidate_filter, timer, stats, ctx, trace, profiler
        )
        surviving_by_site = self._lec_pruning(
            query_graph, lpms_by_site, timer, stats, ctx, trace, profiler
        )
        crossing_bindings = self._assembly(
            query_graph, surviving_by_site, timer, stats, ctx, trace, profiler
        )
        return local_bindings + crossing_bindings

    # -- Stage 1: Algorithm 4 -------------------------------------------------
    def _candidate_exchange(
        self,
        query_graph: QueryGraph,
        timer: StageTimer,
        stats: QueryStatistics,
        ctx: Optional[_FaultContext] = None,
        trace: Optional[Trace] = None,
        profiler: Optional[StageProfiler] = None,
    ) -> Optional[GlobalCandidateFilter]:
        stage = stats.stage(STAGE_CANDIDATES)
        if not self.config.use_candidate_exchange:
            return None
        tasks = candidate_vector_tasks(
            self._live_site_ids(ctx), query_graph, self.config.bit_vector_bits
        )
        per_site_vectors = []
        internal_candidate_total = 0
        with stage_scope(trace, profiler, STAGE_CANDIDATES) as span:
            for result in self._run_site_tasks(tasks, timer, STAGE_CANDIDATES, trace, ctx):
                internal_candidate_total += result.value.internal_candidates
                vectors = result.value.vectors
                per_site_vectors.append(vectors)
                shipped = self.cluster.bus.send(
                    result.site_id, COORDINATOR, "candidate_vectors", list(vectors.values()), STAGE_CANDIDATES
                )
                stage.shipped_bytes += shipped
                stage.messages += 1
            with timer.measure(STAGE_CANDIDATES, COORDINATOR):
                global_filter = union_site_vectors(per_site_vectors, self.config.bit_vector_bits)
            # Broadcast to the sites still alive at this point — identical to
            # the full cluster on a clean run, and a lost site must neither
            # receive the filter nor be charged for it.
            destinations = self._live_site_ids(ctx)
            shipped = self.cluster.bus.broadcast(
                COORDINATOR, destinations, "global_candidate_filter", global_filter, STAGE_CANDIDATES
            )
            stage.shipped_bytes += shipped
            stage.messages += len(destinations)
            if span is not None:
                span.set(shipped_bytes=stage.shipped_bytes, messages=stage.messages)
        stage.site_times_s.update(timer.site_times(STAGE_CANDIDATES))
        stage.coordinator_time_s += timer.elapsed(STAGE_CANDIDATES, COORDINATOR)
        self._charge_network(stage)
        stage.add_counter("internal_candidates", internal_candidate_total)
        stage.add_counter("variables", len(global_filter))
        return global_filter

    # -- Stage 2: partial evaluation -------------------------------------------
    def _partial_evaluation(
        self,
        query: SelectQuery,
        query_graph: QueryGraph,
        plan: Optional[QueryPlan],
        candidate_filter: Optional[GlobalCandidateFilter],
        timer: StageTimer,
        stats: QueryStatistics,
        ctx: Optional[_FaultContext] = None,
        trace: Optional[Trace] = None,
        profiler: Optional[StageProfiler] = None,
    ) -> Tuple[List[Binding], Dict[int, List[LocalPartialMatch]]]:
        stage = stats.stage(STAGE_PARTIAL_EVAL)
        edge_order = plan.edge_order if plan is not None else None
        tasks = partial_eval_tasks(
            self._live_site_ids(ctx),
            query,
            query_graph,
            edge_order,
            candidate_filter,
            self.config.paranoid_validation,
        )
        local_bindings: List[Binding] = []
        lpms_by_site: Dict[int, List[LocalPartialMatch]] = {}
        filtered_branches = 0
        with stage_scope(trace, profiler, STAGE_PARTIAL_EVAL) as span:
            for result in self._run_site_tasks(tasks, timer, STAGE_PARTIAL_EVAL, trace, ctx):
                outcome = result.value
                local_bindings.extend(outcome.local_matches)
                lpms_by_site[result.site_id] = outcome.local_partial_matches
                filtered_branches += outcome.branches_pruned_by_filter
                stats.work["search_steps"] = (
                    stats.work.get("search_steps", 0) + outcome.search_steps
                )
                stats.work["kernel_intersections"] = (
                    stats.work.get("kernel_intersections", 0)
                    + outcome.kernel_intersections
                )
                shipped = self.cluster.bus.send(
                    result.site_id, COORDINATOR, "local_matches", outcome.local_matches, STAGE_PARTIAL_EVAL
                )
                stage.shipped_bytes += shipped
                stage.messages += 1
            if span is not None:
                span.set(shipped_bytes=stage.shipped_bytes, messages=stage.messages)
        stage.site_times_s.update(timer.site_times(STAGE_PARTIAL_EVAL))
        self._charge_network(stage)
        stage.add_counter("local_matches", len(local_bindings))
        stage.add_counter(
            "local_partial_matches", sum(len(lpms) for lpms in lpms_by_site.values())
        )
        stage.add_counter("filtered_extended_candidates", filtered_branches)
        return local_bindings, lpms_by_site

    # -- Stage 3: Algorithms 1-2 ------------------------------------------------
    def _lec_pruning(
        self,
        query_graph: QueryGraph,
        lpms_by_site: Dict[int, List[LocalPartialMatch]],
        timer: StageTimer,
        stats: QueryStatistics,
        ctx: Optional[_FaultContext] = None,
        trace: Optional[Trace] = None,
        profiler: Optional[StageProfiler] = None,
    ) -> Dict[int, List[LocalPartialMatch]]:
        stage = stats.stage(STAGE_PRUNING)
        if not self.config.use_lec_pruning:
            return lpms_by_site

        classes_by_site: Dict[int, Dict[LECFeature, List[LocalPartialMatch]]] = {}
        features_by_site: Dict[int, List[LECFeature]] = {}
        surviving_by_site: Dict[int, List[LocalPartialMatch]] = {}
        with stage_scope(trace, profiler, STAGE_PRUNING) as span:
            for result in self._run_site_tasks(
                lec_feature_tasks(lpms_by_site), timer, STAGE_PRUNING, trace, ctx
            ):
                classes = result.value
                classes_by_site[result.site_id] = classes
                features_by_site[result.site_id] = list(classes)
                shipped = self.cluster.bus.send(
                    result.site_id, COORDINATOR, "lec_features", list(classes), STAGE_PRUNING
                )
                stage.shipped_bytes += shipped
                stage.messages += 1
            with timer.measure(STAGE_PRUNING, COORDINATOR), _join_span(trace) as record_join:
                outcome, surviving_features = prune_features(query_graph, features_by_site)
                record_join(outcome)
            # Iterate the sites that actually reported features: identical to
            # lpms_by_site on a clean run, but a site lost during the feature
            # fan-out has no surviving_features entry to ship back.
            for site_id in sorted(classes_by_site):
                shipped = self.cluster.bus.send(
                    COORDINATOR, site_id, "surviving_features", list(surviving_features[site_id]), STAGE_PRUNING
                )
                stage.shipped_bytes += shipped
                stage.messages += 1

            filter_tasks = lec_filter_tasks(classes_by_site, surviving_features)
            for result in self._run_site_tasks(filter_tasks, timer, STAGE_PRUNING, trace, ctx):
                surviving_by_site[result.site_id] = result.value
            if span is not None:
                span.set(shipped_bytes=stage.shipped_bytes, messages=stage.messages)
        stage.site_times_s.update(timer.site_times(STAGE_PRUNING))
        stage.coordinator_time_s += timer.elapsed(STAGE_PRUNING, COORDINATOR)
        self._charge_network(stage)
        stage.add_counter("lec_features", outcome.total_features)
        stage.add_counter("lec_feature_groups", outcome.groups)
        stage.add_counter("surviving_features", len(outcome.surviving))
        stage.add_counter("join_attempts", outcome.join_attempts)
        stage.add_counter("complete_combinations", outcome.complete_combinations)
        stage.add_counter(
            "pruned_local_partial_matches",
            sum(len(lpms) for lpms in lpms_by_site.values())
            - sum(len(lpms) for lpms in surviving_by_site.values()),
        )
        return surviving_by_site

    # -- Stage 4: assembly --------------------------------------------------------
    def _assembly(
        self,
        query_graph: QueryGraph,
        lpms_by_site: Dict[int, List[LocalPartialMatch]],
        timer: StageTimer,
        stats: QueryStatistics,
        ctx: Optional[_FaultContext] = None,
        trace: Optional[Trace] = None,
        profiler: Optional[StageProfiler] = None,
    ) -> List[Binding]:
        stage = stats.stage(STAGE_ASSEMBLY)
        all_lpms: List[LocalPartialMatch] = []
        with stage_scope(trace, profiler, STAGE_ASSEMBLY) as span:
            for site_id, lpms in lpms_by_site.items():
                shipped = self._ship_assembly_lpms(site_id, lpms, ctx)
                if shipped is None:
                    continue  # site died unrecoverably mid-shipment
                stage.shipped_bytes += shipped
                stage.messages += 1
                all_lpms.extend(lpms)
            with timer.measure(STAGE_ASSEMBLY, COORDINATOR), _join_span(trace) as record_join:
                outcome = assemble_matches(query_graph, all_lpms, use_lec_grouping=self.config.use_lec_assembly)
                record_join(outcome)
            if span is not None:
                span.set(shipped_bytes=stage.shipped_bytes, messages=stage.messages)
        stage.coordinator_time_s += timer.elapsed(STAGE_ASSEMBLY, COORDINATOR)
        self._charge_network(stage)
        stage.add_counter("assembled_local_partial_matches", len(all_lpms))
        stage.add_counter("crossing_matches", outcome.num_matches)
        stage.add_counter("join_attempts", outcome.join_attempts)
        stage.add_counter("lpm_groups", outcome.groups)
        return outcome.bindings()

    def _ship_assembly_lpms(
        self,
        site_id: int,
        lpms: List[LocalPartialMatch],
        ctx: Optional[_FaultContext],
    ) -> Optional[int]:
        """Ship one site's surviving LPMs to the coordinator, surviving faults.

        A site can die *while shipping* (the bus-level kill of
        :class:`~repro.faults.ShipmentFaultInjector` fires before any byte is
        recorded).  Recoverable: rebuild the site and re-send — the retried
        shipment carries identical bytes, so the ledger matches a clean run;
        the loop survives a plan scheduling several deaths of the same site
        (each recoverable entry fires once, so it terminates).  Unrecoverable:
        mark the site lost and return ``None``; its LPMs never reach the
        join, exactly as if the machine vanished mid-transfer.
        """
        while True:
            try:
                return self.cluster.bus.send(
                    site_id, COORDINATOR, "local_partial_matches", lpms, STAGE_ASSEMBLY
                )
            except SiteDownError as error:
                assert ctx is not None, "shipment faults only occur under a fault plan"
                ctx.site_failures += 1
                if not error.recoverable:
                    ctx.lost_sites.add(site_id)
                    return None
                self._rebuild_site(site_id)
                ctx.site_recoveries += 1


def execute_ablation(
    cluster: Cluster,
    query: SelectQuery,
    query_name: str = "",
    dataset: str = "",
    configs: Optional[List[EngineConfig]] = None,
) -> List[DistributedResult]:
    """Run the same query under several engine configurations (Fig. 9 helper)."""
    from .config import ABLATION_CONFIGS

    chosen = configs if configs is not None else list(ABLATION_CONFIGS)
    results = []
    for config in chosen:
        cluster.reset_network()
        engine = GStoreDEngine(cluster, config)
        try:
            results.append(engine.execute(query, query_name=query_name, dataset=dataset))
        finally:
            engine.close()
    return results
