"""Experiment harness regenerating every table and figure of Section VIII.

Each public function corresponds to one experiment of the paper's evaluation
and returns structured rows/series; the ``benchmarks/`` modules call these
functions inside pytest-benchmark fixtures and print the rendered tables, and
EXPERIMENTS.md records the paper-vs-measured comparison.  Engines are built
through the :mod:`repro.api` registry (:func:`repro.api.make_engine`), so
every series/table accepts any registered evaluator name.

The harness deliberately builds *small* dataset instances (the simulation is
pure Python) — the goal is to reproduce the qualitative shape of every
result, as discussed in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..api.engines import make_engine
from ..api.result import Result
from ..baselines import BASELINE_ENGINES
from ..core.config import ABLATION_CONFIGS, EngineConfig
from ..core.engine import (
    STAGE_ASSEMBLY,
    STAGE_CANDIDATES,
    STAGE_PARTIAL_EVAL,
    STAGE_PLANNING,
    STAGE_PRUNING,
)
from ..planner.optimizer import QueryPlanner
from ..store.matcher import LocalMatcher
from ..distributed.cluster import Cluster, build_cluster
from ..partition.cost_model import partitioning_cost
from ..partition.fragment import PartitionedGraph
from ..partition.partitioners import make_partitioner as _make_partitioner
from ..rdf.graph import RDFGraph
from ..sparql.algebra import SelectQuery
from ..datasets.registry import DATASETS, LUBM_SCALES, get_dataset

#: Number of simulated sites, standing in for the paper's 12-machine cluster.
DEFAULT_NUM_SITES = 6

#: Partitioning strategies evaluated in Tables IV and Figs. 10/12.
PARTITIONING_STRATEGIES = ("hash", "semantic_hash", "metis")


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------
@dataclass
class PreparedWorkload:
    """A dataset instance partitioned and wrapped into a cluster."""

    dataset: str
    scale: int
    graph: RDFGraph
    partitioned: PartitionedGraph
    cluster: Cluster
    queries: Dict[str, SelectQuery] = field(default_factory=dict)


def prepare_workload(
    dataset: str,
    scale: Optional[int] = None,
    strategy: str = "hash",
    num_sites: int = DEFAULT_NUM_SITES,
) -> PreparedWorkload:
    """Generate a dataset, partition it and wrap it into a cluster."""
    spec = get_dataset(dataset)
    scale = scale if scale is not None else spec.default_scale
    graph = spec.generate(scale)
    partitioned = _make_partitioner(strategy, num_sites).partition(graph)
    return PreparedWorkload(
        dataset=dataset,
        scale=scale,
        graph=graph,
        partitioned=partitioned,
        cluster=build_cluster(partitioned),
        queries=spec.queries(),
    )


def run_query(
    workload: PreparedWorkload,
    query_name: str,
    config: Optional[EngineConfig] = None,
    engine: str = "gstored",
) -> Result:
    """Run one benchmark query on a prepared workload with a fresh network.

    ``engine`` is any :func:`repro.api.make_engine` registry name; the
    gStoreD family takes ``config``, the fixed-strategy engines require it
    to stay ``None``.
    """
    workload.cluster.reset_network()
    with make_engine(engine, workload.cluster, config=config) as built:
        return built.execute(
            workload.queries[query_name], query_name=query_name, dataset=workload.dataset
        )


# ----------------------------------------------------------------------
# Tables I-III: per-stage evaluation
# ----------------------------------------------------------------------
def stage_breakdown_row(result: Result) -> Dict[str, object]:
    """One row of Tables I-III for a single query execution."""
    stats = result.statistics

    def measured(stage_name: str, attribute: str) -> float:
        stage = stats.find_stage(stage_name)
        return round(getattr(stage, attribute), 3) if stage else 0.0

    return {
        "query": stats.query_name,
        "selective": stats.extra.get("selective", False),
        "planning_time_ms": measured(STAGE_PLANNING, "parallel_time_ms"),
        "plan_cache_hit": bool(stats.counter(STAGE_PLANNING, "plan_cache_hit")),
        "candidates_time_ms": measured(STAGE_CANDIDATES, "parallel_time_ms"),
        "candidates_shipment_kb": measured(STAGE_CANDIDATES, "shipped_kb"),
        "partial_eval_time_ms": measured(STAGE_PARTIAL_EVAL, "parallel_time_ms"),
        "lec_pruning_time_ms": measured(STAGE_PRUNING, "parallel_time_ms"),
        "lec_pruning_shipment_kb": measured(STAGE_PRUNING, "shipped_kb"),
        "assembly_time_ms": measured(STAGE_ASSEMBLY, "parallel_time_ms"),
        "total_time_ms": round(stats.total_time_ms, 3),
        "local_partial_matches": stats.counter(STAGE_PARTIAL_EVAL, "local_partial_matches"),
        "crossing_matches": stats.counter(STAGE_ASSEMBLY, "crossing_matches"),
        "results": stats.num_results,
    }


def per_stage_table(
    dataset: str,
    scale: Optional[int] = None,
    strategy: str = "hash",
    num_sites: int = DEFAULT_NUM_SITES,
    query_names: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Tables I (LUBM), II (YAGO2) and III (BTC): per-stage breakdown per query."""
    workload = prepare_workload(dataset, scale, strategy, num_sites)
    names = list(query_names) if query_names is not None else list(workload.queries)
    rows = []
    for name in names:
        result = run_query(workload, name)
        rows.append(stage_breakdown_row(result))
    return rows


# ----------------------------------------------------------------------
# Fig. 9: ablation of the three optimizations
# ----------------------------------------------------------------------
def ablation_series(
    dataset: str,
    query_names: Sequence[str],
    scale: Optional[int] = None,
    strategy: str = "hash",
    num_sites: int = DEFAULT_NUM_SITES,
) -> Dict[str, Dict[str, float]]:
    """Fig. 9: response time of gStoreD-Basic/LA/LO/Full per query.

    Returns ``{engine label: {query: time_ms}}``.
    """
    workload = prepare_workload(dataset, scale, strategy, num_sites)
    series: Dict[str, Dict[str, float]] = {config.label: {} for config in ABLATION_CONFIGS}
    for name in query_names:
        for config in ABLATION_CONFIGS:
            result = run_query(workload, name, config)
            series[config.label][name] = round(result.statistics.total_time_ms, 3)
    return series


# ----------------------------------------------------------------------
# Planner A/B: cost-based ordering vs the seed's static order
# ----------------------------------------------------------------------
def planner_comparison_series(
    dataset: str,
    query_names: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
    strategy: str = "hash",
    num_sites: int = DEFAULT_NUM_SITES,
) -> Dict[str, Dict[str, float]]:
    """Distributed response time per query with the planner off vs on.

    The planner-on engine is run twice per query and the second (plan-cache
    warm) run is reported — the steady state of a hot query template.
    """
    workload = prepare_workload(dataset, scale, strategy, num_sites)
    names = list(query_names) if query_names is not None else list(workload.queries)
    planner_off = EngineConfig.full().with_options(use_planner=False)
    planner_on = EngineConfig.full()
    series: Dict[str, Dict[str, float]] = {"planner-off": {}, "planner-on": {}}
    for name in names:
        result = run_query(workload, name, planner_off)
        series["planner-off"][name] = round(result.statistics.total_time_ms, 3)
        run_query(workload, name, planner_on)  # warm the plan caches
        result = run_query(workload, name, planner_on)
        series["planner-on"][name] = round(result.statistics.total_time_ms, 3)
    return series


def stage_shipment_snapshot(result: Result) -> List[Tuple[str, int, int]]:
    """Per-stage ``(name, shipped_bytes, messages)`` — the determinism fingerprint."""
    return [
        (stage.name, stage.shipped_bytes, stage.messages) for stage in result.statistics.stages
    ]


def planner_search_report(
    dataset: str,
    query_names: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Deterministic planner A/B on the centralized matcher.

    Search steps (candidate assignments attempted) are a machine-independent
    work measure, so these rows are stable across runs — the benchmark
    assertions use them instead of noisy wall-clock times.  Each query runs
    twice through the planner-backed matcher so the report also shows the
    plan-cache hit rate a repeated workload would see.
    """
    spec = get_dataset(dataset)
    graph = spec.generate(scale if scale is not None else spec.default_scale)
    queries = spec.queries()
    names = list(query_names) if query_names is not None else list(queries)
    planner = QueryPlanner.from_graph(graph)
    static_matcher = LocalMatcher(graph)
    planned_matcher = LocalMatcher(graph, planner=planner)
    rows: List[Dict[str, object]] = []
    for name in names:
        query = queries[name]
        static_results = static_matcher.evaluate(query)
        static_steps = static_matcher.search_steps
        planned_matcher.evaluate(query)
        planned_results = planned_matcher.evaluate(query)
        planned_steps = planned_matcher.search_steps
        assert planned_results.same_solutions(static_results)
        rows.append(
            {
                "query": name,
                "static_steps": static_steps,
                "planned_steps": planned_steps,
                "step_ratio": round(planned_steps / static_steps, 3) if static_steps else 1.0,
                "results": len(static_results),
                "plan_cache_hit_rate": round(planner.cache.hit_rate, 3),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table IV and Fig. 10: partitioning strategies
# ----------------------------------------------------------------------
def partitioning_cost_table(
    datasets: Sequence[str] = ("YAGO2", "LUBM"),
    num_sites: int = DEFAULT_NUM_SITES,
    scale: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Table IV: the Section VII cost of hash / semantic hash / METIS partitionings."""
    rows = []
    for dataset in datasets:
        spec = get_dataset(dataset)
        graph = spec.generate(scale if scale is not None else spec.default_scale)
        row: Dict[str, object] = {"dataset": dataset}
        for strategy in PARTITIONING_STRATEGIES:
            partitioned = _make_partitioner(strategy, num_sites).partition(graph)
            row[strategy] = round(partitioning_cost(partitioned).cost, 2)
        rows.append(row)
    return rows


def partitioning_performance_series(
    dataset: str,
    query_names: Sequence[str],
    scale: Optional[int] = None,
    num_sites: int = DEFAULT_NUM_SITES,
) -> Dict[str, Dict[str, float]]:
    """Fig. 10: gStoreD evaluation time per query under the three partitionings."""
    series: Dict[str, Dict[str, float]] = {}
    for strategy in PARTITIONING_STRATEGIES:
        workload = prepare_workload(dataset, scale, strategy, num_sites)
        series[strategy] = {}
        for name in query_names:
            result = run_query(workload, name)
            series[strategy][name] = round(result.statistics.total_time_ms, 3)
    return series


def lec_feature_shipment_series(
    dataset: str,
    query_names: Sequence[str],
    scale: Optional[int] = None,
    num_sites: int = DEFAULT_NUM_SITES,
) -> Dict[str, Dict[str, float]]:
    """Fig. 10(b): size of the shipped LEC features per query and partitioning."""
    series: Dict[str, Dict[str, float]] = {}
    for strategy in PARTITIONING_STRATEGIES:
        workload = prepare_workload(dataset, scale, strategy, num_sites)
        series[strategy] = {}
        for name in query_names:
            result = run_query(workload, name)
            stage = result.statistics.find_stage(STAGE_PRUNING)
            series[strategy][name] = round(stage.shipped_kb, 3) if stage else 0.0
    return series


# ----------------------------------------------------------------------
# Fig. 11: scalability over LUBM scales
# ----------------------------------------------------------------------
def scalability_series(
    query_names: Sequence[str],
    scales: Optional[Mapping[str, int]] = None,
    strategy: str = "hash",
    num_sites: int = DEFAULT_NUM_SITES,
) -> Dict[str, Dict[str, float]]:
    """Fig. 11: response time per query across LUBM dataset sizes.

    Returns ``{query: {scale label: time_ms}}`` so each query is one line of
    the figure.
    """
    scales = dict(scales) if scales is not None else dict(LUBM_SCALES)
    series: Dict[str, Dict[str, float]] = {name: {} for name in query_names}
    for label, scale in scales.items():
        workload = prepare_workload("LUBM", scale, strategy, num_sites)
        for name in query_names:
            result = run_query(workload, name)
            series[name][label] = round(result.statistics.total_time_ms, 3)
    return series


# ----------------------------------------------------------------------
# Fig. 12: online comparison against the other systems
# ----------------------------------------------------------------------
def comparison_series(
    dataset: str,
    scale: Optional[int] = None,
    num_sites: int = DEFAULT_NUM_SITES,
    query_names: Optional[Sequence[str]] = None,
    gstored_strategies: Sequence[str] = PARTITIONING_STRATEGIES,
    baselines: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 12: response time of every system per query.

    Baselines run over the hash partitioning (their native layouts replicate
    or re-shard data anyway); gStoreD runs once per partitioning strategy,
    mirroring the ``gStoreD-Hash`` / ``gStoreD-SemanticHash`` / ``gStoreD-METIS``
    bars of the figure.  ``baselines`` entries are
    :func:`repro.api.make_engine` names or aliases (the legacy report names
    ``DREAM`` / ``S2RDF`` / ``CliqueSquare`` / ``S2X`` still work, and
    ``"centralized"`` adds the single-store ground truth as a series).
    """
    spec = get_dataset(dataset)
    chosen_queries = list(query_names) if query_names is not None else list(spec.queries())
    baseline_names = list(baselines) if baselines is not None else list(BASELINE_ENGINES)
    series: Dict[str, Dict[str, float]] = {}

    hash_workload = prepare_workload(dataset, scale, "hash", num_sites)
    for baseline_name in baseline_names:
        with make_engine(baseline_name, hash_workload.cluster) as engine:
            series[baseline_name] = {}
            for name in chosen_queries:
                hash_workload.cluster.reset_network()
                result = engine.execute(
                    hash_workload.queries[name], query_name=name, dataset=dataset
                )
                series[baseline_name][name] = round(result.statistics.total_time_ms, 3)

    for strategy in gstored_strategies:
        label = f"gStoreD-{strategy}"
        workload = (
            hash_workload if strategy == "hash" else prepare_workload(dataset, scale, strategy, num_sites)
        )
        series[label] = {}
        for name in chosen_queries:
            result = run_query(workload, name)
            series[label][name] = round(result.statistics.total_time_ms, 3)
    return series
