"""Staged replay of one query through the layers' public functions, with spans.

``GStoreDEngine.execute`` is replayed stage by stage — parse, query graph,
plan, candidate exchange, partial evaluation, LEC features, pruning, filter,
assembly, projection, decode — calling only what the layers export.  Every
call into a layer runs inside a span recorded *here* (name, start, end,
parent, one id per query); nothing inside ``src/`` is instrumented.  The
replay returns the same rows, shipped bytes and work counters as the untraced
``Session.query()`` (checked by :func:`fidelity_problems`), so the per-layer
table decomposes the product and not something else.

Per-site work of a stage goes through the session's own executor backend.
Where one layer owns a whole site task (star local evaluation, LEC features,
the LEC filter) the engine's real task descriptors run through
``backend.map_site_tasks`` and the task-measured ``elapsed_s`` becomes the
child span.  Where a task mixes two layers (candidate vectors = ``store`` +
``core.candidate_exchange``; partial evaluation = ``store`` +
``core.partial_eval``) its body is replayed here so each layer gets its own
span.
"""

from __future__ import annotations

import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api.result import Result
from repro.core.assembly import assemble_matches
from repro.core.candidate_exchange import build_site_vectors, union_site_vectors
from repro.core.partial_eval import PartialEvaluator
from repro.core.pruning import prune_features
from repro.core.site_tasks import (
    TASK_CANDIDATE_VECTORS,
    TASK_PARTIAL_EVAL,
    CandidateVectorsOutput,
    PartialEvalOutput,
    candidate_vector_tasks,
    lec_feature_tasks,
    lec_filter_tasks,
    local_eval_tasks,
    partial_eval_tasks,
)
from repro.distributed.network import estimate_size
from repro.exec import SiteTaskResult
from repro.sparql import parse_query
from repro.sparql.bindings import ResultSet
from repro.sparql.query_graph import QueryGraph

from common import canonical
from workloads import Read, ReadOutcome, Workload

STAGES = ("candidate_exchange", "partial_evaluation", "lec_pruning", "assembly")

#: span name → (metric summed over the query's spans, metric of the slowest site).
SPAN_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "sparql.parse": ("sparql.parse_ms", None),
    "sparql.query_graph": ("sparql.query_graph_ms", None),
    "sparql.project": ("sparql.project_ms", None),
    "planner.plan": ("planner.plan_ms", None),
    "store.local_eval": ("store.local_eval_ms_sum", "store.local_eval_ms_max"),
    "store.internal_candidates": ("store.internal_candidates_ms", None),
    "core.candidate_exchange.site": (
        "core.candidate_exchange.site_ms_sum",
        "core.candidate_exchange.site_ms_max",
    ),
    "core.candidate_exchange.coordinator": ("core.candidate_exchange.coordinator_ms", None),
    "core.partial_eval.site": ("core.partial_eval.site_ms_sum", "core.partial_eval.site_ms_max"),
    "core.lec.features": ("core.lec.features_ms", None),
    "core.pruning.coordinator": ("core.pruning.coordinator_ms", None),
    "core.pruning.filter": ("core.pruning.filter_ms", None),
    "core.assembly.coordinator": ("core.assembly.coordinator_ms", None),
    "distributed.network.sizing": ("distributed.network.sizing_ms", None),
    # Self time of the fan-out span: backend wall minus the site bodies.
    "exec.dispatch": ("exec.dispatch_overhead_ms", None),
    "api.result.decode": ("api.result.decode_ms", None),
}

ROOT = "query"


class SpanRecorder:
    """In-memory spans; written to the result file when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []
        self.query_id = -1

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Dict[str, object]]:
        record = self._append(name, attributes)
        self._open.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def task(self, name: str, parent: Dict[str, object], results: Sequence[SiteTaskResult]) -> None:
        """Child spans of a backend fan-out, one per site task.

        The duration is the task's own ``elapsed_s``; the start is laid out
        back to back from the parent's start (the serial backend runs them in
        this order, so it is off by the dispatch overhead at most).
        """
        cursor = parent["start_ns"]
        for result in results:
            record = self._append(name, {"site": result.site_id, "clock": "task"})
            record["parent"] = parent["id"]
            record["start_ns"] = cursor
            cursor += round(result.elapsed_s * 1e9)
            record["end_ns"] = cursor

    def _append(self, name: str, attributes: Dict[str, object]) -> Dict[str, object]:
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "query": self.query_id,
            "parent": self._open[-1] if self._open else None,
            "start_ns": 0,
            "end_ns": 0,
            **attributes,
        }
        self.spans.append(record)
        return record


def layer_times(spans: Sequence[Dict[str, object]]) -> Dict[int, Dict[str, float]]:
    """Per query id: every :data:`SPAN_METRICS` metric in ms, from span self times.

    A span's self time is its duration minus what its child spans cover.
    Also reports ``replay_ms`` (the root span) and ``attributed_ms`` (the
    root minus its own self time, i.e. everything inside a layer span).
    """
    self_ns = [span["end_ns"] - span["start_ns"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            self_ns[span["parent"]] -= span["end_ns"] - span["start_ns"]
    per_query: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    per_site: Dict[Tuple[int, str, int], float] = defaultdict(float)
    for span, own in zip(spans, self_ns):
        values = per_query[span["query"]]
        if span["name"] == ROOT:
            values["replay_ms"] += (span["end_ns"] - span["start_ns"]) / 1e6
            values["attributed_ms"] += (span["end_ns"] - span["start_ns"] - own) / 1e6
            continue
        total, slowest = SPAN_METRICS[span["name"]]
        values[total] += own / 1e6
        if slowest is not None:
            per_site[(span["query"], slowest, span["site"])] += own / 1e6
    for (query_id, metric, _), ms in per_site.items():
        per_query[query_id][metric] = max(per_query[query_id][metric], ms)
    return per_query


class Replayer:
    """The ``replay`` variant of a read: same answer, one span per layer call."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self._sized: set = set()

    def read(self, workload: Workload, read: Read) -> ReadOutcome:
        session = workload.sessions[read.target]
        self.recorder.query_id += 1
        # Pickle sizes repeat exactly, so size each distinct query once.
        size_pickles = read.expect not in self._sized
        self._sized.add(read.expect)
        replay = _QueryReplay(self.recorder, session, size_pickles)
        with self.recorder.span(ROOT, label=read.kind) as root:
            rows = replay.run(read.text)
        replay.size_pickles()
        counts = replay.counts
        counts["api.result.rows"] = len(rows)
        return ReadOutcome(
            (root["end_ns"] - root["start_ns"]) / 1e6,
            rows,
            shipped_bytes=sum(replay.shipped.values()),
            extra={
                "query_id": self.recorder.query_id,
                "rows": rows,
                "counts": counts,
                "shipped": replay.shipped,
            },
        )


class _QueryReplay:
    """One query's trip through the stages (mirrors ``GStoreDEngine.execute``)."""

    def __init__(self, recorder: SpanRecorder, session, size_pickles: bool) -> None:
        self.recorder = recorder
        self.cluster = session.cluster
        self.config = session.config
        self.backend = session.backend
        self.site_ids = sorted(self.cluster.site_ids)
        self.counts: Dict[str, float] = defaultdict(float)
        self.shipped: Dict[str, int] = dict.fromkeys(STAGES, 0)
        #: (task descriptors, task results) per fan-out, sized after the root span closes.
        self._to_pickle: Optional[List[Tuple[Sequence, Sequence]]] = [] if size_pickles else None

    # -- helpers ---------------------------------------------------------
    def _tasks(self, layer: str, tasks: Sequence) -> List[SiteTaskResult]:
        """Fan real site tasks out through the session's backend."""
        with self.recorder.span("exec.dispatch") as dispatch:
            results = self.backend.map_site_tasks(tasks, self.cluster)
        self.recorder.task(layer, dispatch, results)
        self._keep(tasks, results)
        return results

    def _bodies(self, body, tasks: Sequence, stage: str) -> list:
        """Fan a replayed task body out over the sites (spans nest under the fan-out)."""
        with self.recorder.span("exec.dispatch"):
            values = self.backend.map(body, self.site_ids)
        self._keep(tasks, [SiteTaskResult(s, stage, 0.0, v) for s, v in zip(self.site_ids, values)])
        return values

    def _keep(self, tasks: Sequence, results: Sequence) -> None:
        if self._to_pickle is not None:
            self._to_pickle.append((tasks, results))

    def _ship(self, stage: str, payload, copies: int = 1) -> None:
        """Size a payload the engine ships (once per destination, as the bus does)."""
        with self.recorder.span("distributed.network.sizing", stage=stage):
            size = sum(estimate_size(payload) for _ in range(copies))
        self.shipped[stage] += size
        self.counts["distributed.network.messages"] += copies

    def size_pickles(self) -> None:
        if self._to_pickle is None:
            return
        for tasks, results in self._to_pickle:
            self.counts["exec.task_pickle_bytes"] += sum(len(pickle.dumps(t)) for t in tasks)
            self.counts["exec.result_pickle_bytes"] += sum(len(pickle.dumps(r)) for r in results)

    # -- the pipeline ----------------------------------------------------
    def run(self, text: str) -> List[Dict[str, str]]:
        recorder = self.recorder
        with recorder.span("sparql.parse"):
            query = parse_query(text)
        with recorder.span("sparql.query_graph"):
            query_graph = QueryGraph(query.bgp)
        if self.config.star_shortcut and query_graph.is_star():
            bindings = self._star(query)
        else:
            bindings = self._general(query, query_graph)
        with recorder.span("sparql.project"):
            results = ResultSet(bindings, query.variables)
            results = results.project(query.effective_projection, distinct=True)
            results = results.limit(query.limit)
        with recorder.span("api.result.decode"):
            return Result(results).to_dicts()

    def _star(self, query) -> list:
        bindings: list = []
        tasks = local_eval_tasks(self.site_ids, query, self.config.shards_per_site)
        for result in self._tasks("store.local_eval", tasks):
            self._ship("partial_evaluation", result.value.matches)
            bindings.extend(result.value.matches)
            self.counts["store.search_steps"] += result.value.search_steps
            self.counts["store.kernel_intersections"] += result.value.kernel_intersections
        self.counts["core.partial_eval.local_matches"] = len(bindings)
        return bindings

    def _general(self, query, query_graph) -> list:
        recorder, config, counts = self.recorder, self.config, self.counts
        cluster = self.cluster

        edge_order = None
        if config.use_planner:
            with recorder.span("planner.plan"):
                planner = cluster.coordinator_planner(config.plan_cache_size)
                hits = planner.cache.hits
                edge_order = planner.plan_for(query_graph).edge_order
            counts["planner.lookups"] += 1
            counts["planner.hits"] += planner.cache.hits - hits

        candidate_filter = None
        if config.use_candidate_exchange:

            def vectors_body(site_id: int) -> CandidateVectorsOutput:
                site = cluster.site(site_id)
                with recorder.span("store.internal_candidates", site=site_id):
                    candidates = site.internal_candidates(query_graph)
                with recorder.span("core.candidate_exchange.site", site=site_id):
                    vectors = build_site_vectors(candidates, config.bit_vector_bits)
                    total = sum(len(values) for values in candidates.values())
                return CandidateVectorsOutput(total, vectors)

            tasks = candidate_vector_tasks(self.site_ids, query_graph, config.bit_vector_bits)
            outputs = self._bodies(vectors_body, tasks, TASK_CANDIDATE_VECTORS)
            for output in outputs:
                counts["core.candidate_exchange.internal_candidates"] += output.internal_candidates
                self._ship("candidate_exchange", list(output.vectors.values()))
            with recorder.span("core.candidate_exchange.coordinator"):
                candidate_filter = union_site_vectors(
                    [output.vectors for output in outputs], config.bit_vector_bits
                )
            self._ship("candidate_exchange", candidate_filter, copies=len(self.site_ids))

        def partial_eval_body(site_id: int) -> PartialEvalOutput:
            site = cluster.site(site_id)
            with recorder.span("store.local_eval", site=site_id):
                local = list(site.local_evaluate(query))
                matcher = site.store.matcher
                steps, intersections = matcher.search_steps, matcher.kernel_intersections
            with recorder.span("core.partial_eval.site", site=site_id):
                evaluator = PartialEvaluator(
                    site.fragment,
                    graph=site.graph,
                    paranoid=config.paranoid_validation,
                    edge_order=edge_order,
                )
                outcome = evaluator.evaluate(query_graph, candidate_filter=candidate_filter)
            return PartialEvalOutput(
                local,
                outcome.local_partial_matches,
                outcome.branches_pruned_by_filter,
                steps,
                matcher.last_kernel,
                intersections,
            )

        tasks = partial_eval_tasks(
            self.site_ids, query, query_graph, edge_order, candidate_filter,
            config.paranoid_validation,
        )  # fmt: skip
        bindings: list = []
        lpms_by_site: Dict[int, list] = {}
        outputs = self._bodies(partial_eval_body, tasks, TASK_PARTIAL_EVAL)
        for site_id, output in zip(self.site_ids, outputs):
            bindings.extend(output.local_matches)
            lpms_by_site[site_id] = output.local_partial_matches
            counts["store.search_steps"] += output.search_steps
            counts["store.kernel_intersections"] += output.kernel_intersections
            counts["core.candidate_exchange.filtered_branches"] += output.branches_pruned_by_filter
            self._ship("partial_evaluation", output.local_matches)
        lpms = sum(len(found) for found in lpms_by_site.values())
        counts["core.partial_eval.local_matches"] = len(bindings)
        counts["core.partial_eval.lpms"] = lpms

        surviving_by_site = lpms_by_site
        if config.use_lec_pruning:
            classes_by_site = {}
            for result in self._tasks("core.lec.features", lec_feature_tasks(lpms_by_site)):
                classes_by_site[result.site_id] = result.value
                self._ship("lec_pruning", list(result.value))
            features_by_site = {s: list(classes) for s, classes in classes_by_site.items()}
            with recorder.span("core.pruning.coordinator"):
                pruning, surviving_features = prune_features(query_graph, features_by_site)
            for site_id in sorted(classes_by_site):
                self._ship("lec_pruning", list(surviving_features[site_id]))
            filter_tasks = lec_filter_tasks(classes_by_site, surviving_features)
            surviving_by_site = {
                result.site_id: result.value
                for result in self._tasks("core.pruning.filter", filter_tasks)
            }
            counts["core.lec.features"] = pruning.total_features
            counts["core.pruning.join_attempts"] = pruning.join_attempts
            counts["core.pruning.groups"] = pruning.groups
            counts["core.pruning.surviving"] = len(pruning.surviving)
            counts["core.pruning.pruned_lpms"] = lpms - sum(
                len(kept) for kept in surviving_by_site.values()
            )

        all_lpms: list = []
        for site_lpms in surviving_by_site.values():
            self._ship("assembly", site_lpms)
            all_lpms.extend(site_lpms)
        with recorder.span("core.assembly.coordinator"):
            assembly = assemble_matches(
                query_graph, all_lpms, use_lec_grouping=config.use_lec_assembly
            )
            crossing = assembly.bindings()
        counts["core.assembly.join_attempts"] = assembly.join_attempts
        counts["core.assembly.successful_joins"] = assembly.successful_joins
        counts["core.assembly.crossing_matches"] = assembly.num_matches
        return bindings + crossing


def fidelity_problems(label: str, untraced, replayed: Dict[str, object]) -> List[str]:
    """Where a replay (its ``extra``) and the untraced ``Result`` of one query disagree."""
    problems = []
    counts, shipped = replayed["counts"], replayed["shipped"]
    statistics, shipment = untraced.statistics, untraced.shipment
    if canonical(replayed["rows"]) != canonical(untraced.to_dicts()):
        problems.append(f"{label}: rows differ")
    for stage in STAGES:
        if shipped[stage] != shipment.bytes_by_stage.get(stage, 0):
            problems.append(
                f"{label}: {stage} ships {shipped[stage]} B in the replay, "
                f"{shipment.bytes_by_stage.get(stage, 0)} B in the engine"
            )
    if counts["distributed.network.messages"] != shipment.total_messages:
        problems.append(f"{label}: message count differs")
    pairs = [
        ("core.partial_eval.lpms", statistics.counter("partial_evaluation", "local_partial_matches")),
        ("core.lec.features", statistics.counter("lec_pruning", "lec_features")),
        ("core.assembly.join_attempts", statistics.counter("assembly", "join_attempts")),
        ("store.search_steps", statistics.work.get("search_steps", 0)),
    ]
    for key, engine_value in pairs:
        if counts[key] != engine_value:
            problems.append(f"{label}: {key} is {counts[key]} in the replay, {engine_value} in the engine")
    return problems
