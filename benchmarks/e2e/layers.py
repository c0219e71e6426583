"""The traced run: the per-layer table of one workload.

Each traced pass is run once per *variant* of a read — the untraced control,
the staged replay (spans), the same query on a ``trace=True`` twin session,
``Session.query`` and ``engine.execute`` on the pre-parsed query, planner
probes, and on ``serve_mixed`` the HTTP request and the JSON encode — so
every variant sees the same operations in the same graph states.  Per-layer
numbers are medians per query over the passes, summed over one pass.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter, defaultdict
from functools import partial
from statistics import median
from typing import Callable, Dict, List, Sequence, Tuple

import repro
from repro.datasets.registry import get_dataset
from repro.partition import make_partitioner
from repro.persist import ClusterStore
from repro.planner import QueryPlanner
from repro.sparql import parse_query
from repro.sparql.query_graph import QueryGraph

from common import WORK_DIR, timed
from replay import STAGES, Replayer, fidelity_problems, layer_times
from workloads import (
    OPEN_OPTIONS,
    Read,
    ReadOutcome,
    Sample,
    ServeMixed,
    Workload,
    draw_batch,
    query_op,
    run_pass,
)

UPDATE_PROBE_CYCLES = 5


def setup_layers(workload: Workload) -> Dict[str, float]:
    """Time the set-up layers on their own: generate, partition, build, persist."""
    values: Dict[str, float] = defaultdict(float)
    partitioner = make_partitioner(OPEN_OPTIONS["partitioner"], OPEN_OPTIONS["sites"])
    for label, dataset, _ in workload.datasets:
        spec = get_dataset(dataset.upper())
        scale = workload.scale(label)
        graph, ms = timed(
            lambda: spec.generate(scale if scale is not None else spec.default_scale)
        )
        values["datasets.generate_ms"] += ms
        partitioned, ms = timed(lambda: partitioner.partition(graph))
        values["partition.partition_ms"] += ms
        _, ms = timed(lambda: repro.build_cluster(partitioned))
        values["distributed.build_cluster_ms"] += ms
        if workload.store_path is not None:
            WORK_DIR.mkdir(exist_ok=True)
            path = workload.store_path.with_suffix(".probe")
            path.unlink(missing_ok=True)
            try:
                _, values["persist.create_ms"] = timed(
                    lambda: ClusterStore.create(
                        path, partitioned, dataset=spec.name, scale=scale
                    ).close()
                )
                values["persist.store_bytes"] = path.stat().st_size
                _, values["persist.cold_open_ms"] = timed(
                    lambda: repro.open(path=str(path), **OPEN_OPTIONS).close()
                )
            finally:
                path.unlink(missing_ok=True)
    return values


class Variants:
    """The read functions a traced pass is repeated with."""

    def __init__(self, workload: Workload) -> None:
        self.replayer = Replayer()
        #: ``trace=True`` twins over the same clusters (tracing-on overhead).
        self.traced = {
            label: repro.Session.from_cluster(
                session.cluster,
                dataset=session.dataset,
                executor=OPEN_OPTIONS["executor"],
                result_cache=OPEN_OPTIONS["result_cache"],
                trace=True,
            )
            for label, session in workload.sessions.items()
        }
        self._parsed: Dict[str, object] = {}
        self.functions: Dict[str, Callable[[Workload, Read], ReadOutcome]] = {
            "control": partial(query_op, keep_result=True),
            "replay": self.replayer.read,
            "tracing_on": self.tracing_on,
            "session": self.session_parsed,
            "engine": self.engine_parsed,
            "planner": self.planner_probe,
        }
        if isinstance(workload, ServeMixed):
            self.functions["http"] = lambda w, read: w.http_op(read)
            self.functions["json_encode"] = self.json_encode

    def close(self) -> None:
        for session in self.traced.values():
            session.close()

    def parsed(self, text: str):
        if text not in self._parsed:
            self._parsed[text] = parse_query(text)
        return self._parsed[text]

    def tracing_on(self, workload: Workload, read: Read) -> ReadOutcome:
        session = self.traced[read.target]
        started = time.perf_counter()
        rows = session.query(read.text).to_dicts()
        return ReadOutcome((time.perf_counter() - started) * 1e3, rows)

    def session_parsed(self, workload: Workload, read: Read) -> ReadOutcome:
        session, query = workload.sessions[read.target], self.parsed(read.text)
        started = time.perf_counter()
        result = session.query(query)
        return ReadOutcome((time.perf_counter() - started) * 1e3, result.to_dicts())

    def engine_parsed(self, workload: Workload, read: Read) -> ReadOutcome:
        """``session.engine().execute`` alone; the ledger keeps the bus log empty."""
        session, query = workload.sessions[read.target], self.parsed(read.text)
        engine = session.engine()
        with session.cluster.bus.ledger():
            started = time.perf_counter()
            result = engine.execute(query)
            ms = (time.perf_counter() - started) * 1e3
        return ReadOutcome(ms, result.to_dicts())

    def planner_probe(self, workload: Workload, read: Read) -> ReadOutcome:
        """Off-path probes: a shape-keyed cache hit, and a plan from an empty cache."""
        session = workload.sessions[read.target]
        query_graph = QueryGraph(self.parsed(read.text).bgp)
        planner = session.planner
        planner.plan_for(query_graph)
        started = time.perf_counter()
        planner.plan_for(query_graph)
        warm = time.perf_counter()
        cold_planner = QueryPlanner(planner.statistics)
        cold_started = time.perf_counter()
        cold_planner.plan_for(query_graph)
        cold_ms = (time.perf_counter() - cold_started) * 1e3
        return ReadOutcome((warm - started) * 1e3, None, extra={"probe": True, "cold_ms": cold_ms})

    def json_encode(self, workload: Workload, read: Read) -> ReadOutcome:
        """Time encoding the body ``POST /query`` answers with."""
        result = workload.sessions[read.target].query(read.text)
        body = {
            "rows": result.to_dicts(),
            "num_rows": len(result),
            "engine": result.statistics.engine,
            "total_time_ms": round(result.statistics.total_time_ms, 3),
            "shipped_bytes": result.shipment.total_bytes,
            "cache_hit": result.cache_hit,
            "degraded": result.degraded,
        }
        started = time.perf_counter()
        json.dumps(body).encode("utf-8")
        return ReadOutcome((time.perf_counter() - started) * 1e3, body["rows"])


def update_probe(workload: Workload) -> List[float]:
    """``Session.update`` latency on the workload's LUBM session (the seed's batch of 10)."""
    session = workload.sessions["lubm"]
    batch = draw_batch(session.graph, workload.seed)
    return [
        timed(lambda: session.update(**change))[1]
        for _ in range(UPDATE_PROBE_CYCLES)
        for change in ({"remove": batch}, {"add": batch})
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_by_query(
    samples: Sequence[Sample], value: Callable[[Sample], float] = lambda s: s.ms
) -> Dict[str, float]:
    grouped: Dict[str, List[float]] = defaultdict(list)
    for sample in samples:
        grouped[sample.name].append(value(sample))
    return {name: median(values) for name, values in grouped.items()}


def query_rows(
    reads: Dict[str, List[Sample]], spans: Sequence[Dict[str, object]]
) -> Dict[str, Dict[str, float]]:
    """One row per query: the median over the passes of every time and count."""
    times = layer_times(spans)
    layer_ms: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    counts: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for sample in reads["replay"]:
        for metric, ms in times[sample.extra["query_id"]].items():
            layer_ms[sample.name][metric].append(ms * sample.host)
        for key, value in sample.extra["counts"].items():
            counts[sample.name][key].append(value)
        for stage in STAGES:
            key = f"distributed.network.shipped_bytes.{stage}"
            counts[sample.name][key].append(sample.extra["shipped"][stage])
    variant_ms = {f"{name}_ms": _median_by_query(found) for name, found in reads.items()}
    variant_ms["planner.plan_warm_ms"] = variant_ms.pop("planner_ms")
    variant_ms["planner.plan_cold_ms"] = _median_by_query(
        reads["planner"], lambda s: s.extra["cold_ms"] * s.host
    )
    rows: Dict[str, Dict[str, float]] = {}
    for query, times_of in layer_ms.items():
        row = {metric: median(values) for metric, values in times_of.items()}
        # Pickles are sized on a query's first replay only; every other count repeats.
        row.update({key: max(values) for key, values in counts[query].items()})
        row.update({key: by_query[query] for key, by_query in variant_ms.items()})
        row["api.session.overhead_ms"] = row["session_ms"] - row["engine_ms"]
        row["unattributed_ms"] = row["control_ms"] - row["attributed_ms"]
        row["unattributed_share"] = _ratio(row["unattributed_ms"], row["control_ms"])
        rows[query] = row
    return rows


def pass_totals(rows: Dict[str, Dict[str, float]], multiplicity: Dict[str, int]) -> Dict[str, float]:
    """The query rows summed over one pass; shares recomputed from the summed counts."""
    totals: Dict[str, float] = defaultdict(float)
    for query, row in rows.items():
        for key, value in row.items():
            if not key.endswith("_share"):
                totals[key] += value * multiplicity[query]
    totals.update(
        {
            "planner.cache_hit_share": _ratio(totals["planner.hits"], totals["planner.lookups"]),
            "core.partial_eval.site_skew": _ratio(
                totals["core.partial_eval.site_ms_max"],
                totals["core.partial_eval.site_ms_sum"] / OPEN_OPTIONS["sites"],
            ),
            "core.lec.lpms_per_feature": _ratio(
                totals["core.partial_eval.lpms"], totals["core.lec.features"]
            ),
            "core.pruning.surviving_share": _ratio(
                totals["core.pruning.surviving"], totals["core.lec.features"]
            ),
            "core.pruning.pruned_lpm_share": _ratio(
                totals["core.pruning.pruned_lpms"], totals["core.partial_eval.lpms"]
            ),
            "core.assembly.successful_join_share": _ratio(
                totals["core.assembly.successful_joins"], totals["core.assembly.join_attempts"]
            ),
            "obs.tracing_overhead_share": _ratio(
                totals["tracing_on_ms"] - totals["control_ms"], totals["control_ms"]
            ),
            "unattributed_share": _ratio(totals["unattributed_ms"], totals["control_ms"]),
        }
    )
    return totals


def traced_run(workload: Workload, passes: int) -> Dict[str, object]:
    """Set up once, run ``passes`` traced passes, return the per-layer table and its evidence."""
    per_layer = setup_layers(workload)
    workload.setup()
    workload.prepare()
    variants = Variants(workload)
    samples: Dict[str, List[Sample]] = {name: [] for name in variants.functions}
    store_bytes = workload.store_path.stat().st_size if workload.store_path else 0
    try:
        for index in range(passes):
            for name, function in variants.functions.items():
                # Every variant starts its pass from a collected heap, so the
                # collector's pauses fall on the same operations in each.
                gc.collect()
                run_pass(workload, index, function, samples[name])
        update_ms = update_probe(workload)
        oracle_stable = workload.oracle_stable()
    finally:
        variants.close()

    reads = {name: [s for s in found if s.kind == "read"] for name, found in samples.items()}
    problems: List[str] = []
    for untraced, replayed in zip(reads["control"], reads["replay"]):
        problems += fidelity_problems(replayed.name, untraced.extra["result"], replayed.extra)
    if not oracle_stable:
        problems.append("the oracle changed during the run")

    spans = variants.replayer.recorder.spans
    per_query = query_rows(reads, spans)
    multiplicity = Counter(op.kind for op in workload.pass_ops(0) if isinstance(op, Read))
    totals = pass_totals(per_query, multiplicity)
    per_layer.update(totals)
    per_layer["api.session.update_ms"] = median(update_ms)
    if workload.store_path is not None:
        updates = sum(s.kind == "update" for found in samples.values() for s in found)
        grown = workload.store_path.stat().st_size - store_bytes
        per_layer["persist.store_growth_bytes_per_update"] = grown / (updates + len(update_ms))
    if isinstance(workload, ServeMixed):
        per_layer["api.serving.http_overhead_ms"] = (
            totals["http_ms"] - totals["control_ms"] - totals["json_encode_ms"]
        )
        per_layer["api.serving.json_encode_ms"] = totals["json_encode_ms"]
        sizes = _median_by_query(reads["http"], lambda s: s.extra["response_bytes"])
        per_layer["api.serving.response_bytes"] = sum(
            sizes[query] * count for query, count in multiplicity.items()
        )
        per_layer["api.serving.rejected"] = workload.rejected_total()

    passes_ms: Dict[Tuple[int, int], float] = defaultdict(float)
    for sample in reads["control"]:
        passes_ms[sample.pass_id] += sample.ms
    checked = [s for found in samples.values() for s in found if not s.extra.get("probe")]
    return {
        "values": dict(per_layer),
        "per_query": per_query,
        "detail": {"passes": passes, "control_pass_p50_ms": median(passes_ms.values())},
        "attempted": len(checked),
        "failed": sum(not s.ok for s in checked),
        "problems": problems,
        "spans": spans,
    }
