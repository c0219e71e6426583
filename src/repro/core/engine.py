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
   LPMs into LEC features, the coordinator joins the features and returns
   the positions of the ones that can contribute to a complete match; the
   sites drop the rest.
4. *Assembly* (Algorithm 3 or the ungrouped join of [18]): the surviving
   LPMs are shipped to the coordinator and joined into crossing matches,
   which are merged with the fragment-local matches.

Star queries are answered purely locally when ``star_shortcut`` is enabled —
every match of a star query is contained in a single fragment because
crossing edges are replicated — which reproduces the zero-cost optimization
rows of the paper's Tables I-III.

Every stage's wall-clock time (per site and for the coordinator) and every
inter-site message is recorded in a :class:`~repro.distributed.QueryStatistics`,
from which the benchmark harness rebuilds the paper's tables.  The recording
is not done here: each stage body runs inside ``run.stage(name)`` of the
execution's :class:`~repro.distributed.run.Run` and ships, fans out and times
through the :class:`~repro.distributed.run.Stage` it is handed, so the stage
methods below read like the paper's Algorithms 1-4.

Execution model: each stage expresses its per-site body as a
:class:`~repro.exec.SiteTask` descriptor (``(site_id, stage, handler,
payload)``; the module-level handlers live in :mod:`repro.core.site_tasks`)
and runs the batch through :meth:`~repro.distributed.run.Stage.fan_out`, one
site after another.  Handlers only touch their own site and their explicit
payload; all shared-state mutation — message-bus sends, statistics
accumulation, stage timing — happens afterwards in a serial merge over the
results in ``site_id`` order.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from ..distributed.cluster import Cluster
from ..distributed.network import COORDINATOR
from ..distributed.result import Result
from ..distributed.run import Run
from ..faults import FaultPlan, RetryPolicy
from ..obs import CATEGORY_PLANNING, StageProfiler, Trace
from ..planner.plan import QueryPlan
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import Row
from ..sparql.query_graph import QueryGraph
from .assembly import assemble_matches
from .candidate_exchange import GlobalCandidateFilter, union_site_vectors
from .config import EngineConfig
from .lec import LECClasses, LECFeature
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

LPMsBySite = Dict[int, List[LocalPartialMatch]]


class GStoreDEngine:
    """Partial-evaluation-and-assembly SPARQL engine over a simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        name: Optional[str] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or EngineConfig.full()
        self.name = name or self.config.label
        #: Optional fault-injection schedule (see :mod:`repro.faults`): when
        #: set, every site task runs under the plan, transient failures retry
        #: with ``retry`` (default: the plan's own policy), dead sites are
        #: rebuilt from their fragments, and unrecoverable losses
        #: degrade the result instead of aborting the query.  ``None`` — the
        #: default — leaves the execution path byte-identical to before the
        #: fault layer existed.
        self.faults = faults
        self.retry = retry if retry is not None else (faults.retry if faults else None)
        #: How a dead site is rebuilt (mirrors the sites' planner setup below).
        self._site_options = {
            "use_planner": self.config.use_planner,
            "plan_cache_size": self.config.plan_cache_size,
        }
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

    def close(self) -> None:
        """Nothing to release: the engine holds no resources of its own."""

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
    ) -> Result:
        """Run ``query`` through the full distributed pipeline.

        ``trace``/``profiler`` are optional observability hooks (see
        :mod:`repro.obs`): when set, every stage opens a span (with a span
        per site task) and/or a per-stage
        ``cProfile`` capture.  Both default to off and change nothing about
        evaluation — answers, ``search_steps`` and shipment accounting are
        bit-identical with or without them.
        """
        run = Run.start(
            self.name,
            self.cluster,
            query,
            query_name,
            dataset,
            query_graph=QueryGraph(query.bgp),
            trace=trace,
            profiler=profiler,
            site_options=self._site_options,
            plan=self.faults,
            retry=self.retry,
        )
        stats = run.stats
        if self.config.use_planner:
            # Keep the stage present (and first) even on the star path,
            # where the coordinator never plans — its zero-cost row mirrors
            # how the star shortcut zeroes the other optimization stages.
            stats.stage(STAGE_PLANNING)
        with run.fault_scope():
            if self.config.star_shortcut and run.query_graph.is_star():
                rows = self._evaluate_star(run)
            else:
                rows = self._evaluate_general(run)
        stats.extra["query_shape"] = run.query_graph.classify_shape()
        stats.extra["selective"] = run.query_graph.has_selective_pattern()
        return run.result(rows)

    # ------------------------------------------------------------------
    # Stage 0: cost-based planning
    # ------------------------------------------------------------------
    def _plan_query(self, run: Run) -> Optional[QueryPlan]:
        """Plan the query on the coordinator and record the planning stage.

        The coordinator plans over the cluster-wide aggregated statistics;
        its plan drives the partial-evaluation edge order.  The sites'
        matchers additionally plan their fragment-local work with their own
        (already enabled) planners.  Planning ships nothing and its span is
        a ``plan`` span of the planning category, not a stage span, so it
        does not go through :meth:`Run.stage`.
        """
        if not self.config.use_planner:
            return None
        stage = run.stats.stage(STAGE_PLANNING)
        trace = run.trace
        planner = self.cluster.coordinator_planner(self.config.plan_cache_size)
        hits_before = planner.cache.hits
        span_cm = trace.span("plan", CATEGORY_PLANNING) if trace is not None else nullcontext()
        profile_cm = (
            run.profiler.capture(STAGE_PLANNING) if run.profiler is not None else nullcontext()
        )
        with profile_cm, span_cm as span:
            with run.timer.measure(STAGE_PLANNING):
                plan = planner.plan_for(run.query_graph)
            cache_hit = planner.cache.hits > hits_before
            if span is not None:
                trace.event("plan_cache", CATEGORY_PLANNING, hit=cache_hit)
                span.set(
                    source=plan.source,
                    estimated_cost=round(plan.estimated_cost, 1),
                    cache_hit=cache_hit,
                )
        stage.coordinator_time_s += run.timer.elapsed(STAGE_PLANNING)
        stage.add_counter("plan_cache_hit", 1 if cache_hit else 0)
        stage.add_counter("planned_vertices", len(plan))
        run.stats.extra["plan_source"] = plan.source
        run.stats.extra["plan_estimated_cost"] = round(plan.estimated_cost, 1)
        run.stats.extra["plan_cache_hit_rate"] = round(planner.cache.hit_rate, 3)
        return plan

    # ------------------------------------------------------------------
    # Star shortcut
    # ------------------------------------------------------------------
    def _evaluate_star(self, run: Run) -> List[Row]:
        """Evaluate a star query purely locally at every site."""
        work = run.stats.work
        tasks = local_eval_tasks(run.live_site_ids(), run.query)
        all_rows: List[Row] = []
        with run.stage(STAGE_PARTIAL_EVAL, star_shortcut=True) as stage:
            for result in stage.fan_out(tasks):
                outcome = result.value
                stage.ship(result.site_id, COORDINATOR, "local_matches", outcome.matches)
                all_rows.extend(outcome.matches.rows)
                work["search_steps"] = work.get("search_steps", 0) + outcome.search_steps
                work["kernel_intersections"] = (
                    work.get("kernel_intersections", 0) + outcome.kernel_intersections
                )
            stage.count(local_matches=len(all_rows), local_partial_matches=0)
        # Keep the optimization stages present (at zero cost) so the table
        # rows show the same zeros as the paper does for star queries.
        run.stats.stage(STAGE_CANDIDATES)
        run.stats.stage(STAGE_PRUNING)
        run.stats.stage(STAGE_ASSEMBLY).add_counter("crossing_matches", 0)
        return all_rows

    # ------------------------------------------------------------------
    # General pipeline
    # ------------------------------------------------------------------
    def _evaluate_general(self, run: Run) -> List[Row]:
        plan = self._plan_query(run)
        candidate_filter = self._candidate_exchange(run)
        local_rows, lpms_by_site = self._partial_evaluation(run, plan, candidate_filter)
        surviving_by_site = self._lec_pruning(run, lpms_by_site)
        return local_rows + self._assembly(run, surviving_by_site)

    # -- Stage 1: Algorithm 4 -------------------------------------------------
    def _candidate_exchange(self, run: Run) -> Optional[GlobalCandidateFilter]:
        if not self.config.use_candidate_exchange:
            run.stats.stage(STAGE_CANDIDATES)
            return None
        bits = self.config.bit_vector_bits
        tasks = candidate_vector_tasks(run.live_site_ids(), run.query_graph, bits)
        per_site_vectors = []
        internal_candidates = 0
        with run.stage(STAGE_CANDIDATES) as stage:
            for result in stage.fan_out(tasks):
                internal_candidates += result.value.internal_candidates
                vectors = result.value.vectors
                per_site_vectors.append(vectors)
                stage.ship(result.site_id, COORDINATOR, "candidate_vectors", list(vectors.values()))
            with stage.measure():
                global_filter = union_site_vectors(per_site_vectors, bits)
            # Broadcast to the sites still alive at this point — identical to
            # the full cluster on a clean run, and a lost site must neither
            # receive the filter nor be charged for it.
            stage.broadcast(
                COORDINATOR, run.live_site_ids(), "global_candidate_filter", global_filter
            )
            stage.count(internal_candidates=internal_candidates, variables=len(global_filter))
        return global_filter

    # -- Stage 2: partial evaluation -------------------------------------------
    def _partial_evaluation(
        self,
        run: Run,
        plan: Optional[QueryPlan],
        candidate_filter: Optional[GlobalCandidateFilter],
    ) -> Tuple[List[Row], LPMsBySite]:
        work = run.stats.work
        tasks = partial_eval_tasks(
            run.live_site_ids(),
            run.query,
            run.query_graph,
            plan.edge_order if plan is not None else None,
            candidate_filter,
            self.config.paranoid_validation,
        )
        local_rows: List[Row] = []
        lpms_by_site: LPMsBySite = {}
        filtered_branches = 0
        with run.stage(STAGE_PARTIAL_EVAL) as stage:
            for result in stage.fan_out(tasks):
                outcome = result.value
                local_rows.extend(outcome.local_matches.rows)
                lpms_by_site[result.site_id] = outcome.local_partial_matches
                filtered_branches += outcome.branches_pruned_by_filter
                work["search_steps"] = work.get("search_steps", 0) + outcome.search_steps
                work["kernel_intersections"] = (
                    work.get("kernel_intersections", 0) + outcome.kernel_intersections
                )
                stage.ship(result.site_id, COORDINATOR, "local_matches", outcome.local_matches)
            stage.count(
                local_matches=len(local_rows),
                local_partial_matches=sum(len(lpms) for lpms in lpms_by_site.values()),
                filtered_extended_candidates=filtered_branches,
            )
        return local_rows, lpms_by_site

    # -- Stage 3: Algorithms 1-2 ------------------------------------------------
    def _lec_pruning(self, run: Run, lpms_by_site: LPMsBySite) -> LPMsBySite:
        if not self.config.use_lec_pruning:
            run.stats.stage(STAGE_PRUNING)
            return lpms_by_site
        classes_by_site: Dict[int, LECClasses] = {}
        features_by_site: Dict[int, List[LECFeature]] = {}
        surviving_by_site: LPMsBySite = {}
        with run.stage(STAGE_PRUNING) as stage:
            for result in stage.fan_out(lec_feature_tasks(lpms_by_site)):
                classes = result.value
                classes_by_site[result.site_id] = classes
                features_by_site[result.site_id] = list(classes)
                stage.ship(result.site_id, COORDINATOR, "lec_features", list(classes))
            with stage.join() as record_join:
                outcome, survivors = prune_features(run.query_graph, features_by_site)
                record_join(outcome)
            # Iterate the sites that actually reported features: identical to
            # lpms_by_site on a clean run, but a site lost during the feature
            # fan-out has no survivor positions to ship back.
            for site_id in sorted(classes_by_site):
                stage.ship(COORDINATOR, site_id, "surviving_features", survivors[site_id])
            for result in stage.fan_out(lec_filter_tasks(classes_by_site, survivors)):
                surviving_by_site[result.site_id] = result.value
            stage.count(
                lec_features=outcome.total_features,
                lec_feature_groups=outcome.groups,
                surviving_features=len(outcome.surviving),
                join_attempts=outcome.join_attempts,
                complete_combinations=outcome.complete_combinations,
                pruned_local_partial_matches=sum(len(lpms) for lpms in lpms_by_site.values())
                - sum(len(lpms) for lpms in surviving_by_site.values()),
            )
        return surviving_by_site

    # -- Stage 4: assembly --------------------------------------------------------
    def _assembly(self, run: Run, lpms_by_site: LPMsBySite) -> List[Row]:
        all_lpms: List[LocalPartialMatch] = []
        with run.stage(STAGE_ASSEMBLY) as stage:
            for site_id, lpms in lpms_by_site.items():
                # ``None``: the site died unrecoverably mid-shipment, so its
                # LPMs never reach the join.
                if stage.ship(site_id, COORDINATOR, "local_partial_matches", lpms) is not None:
                    all_lpms.extend(lpms)
            with stage.join() as record_join:
                outcome = assemble_matches(
                    run.query_graph, all_lpms, use_lec_grouping=self.config.use_lec_assembly
                )
                record_join(outcome)
            stage.count(
                assembled_local_partial_matches=len(all_lpms),
                crossing_matches=outcome.num_matches,
                join_attempts=outcome.join_attempts,
                lpm_groups=outcome.groups,
            )
        return outcome.rows(run.query.effective_projection)
