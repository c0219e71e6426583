"""Command-line interface for the reproduction.

The CLI covers the workflow a downstream user actually runs:

* ``repro generate``  — build one of the bundled synthetic datasets and write
  it as N-Triples;
* ``repro partition`` — partition a dataset with one of the strategies,
  report the Section VII cost, and optionally save the workspace;
* ``repro query``     — execute a SPARQL BGP query (inline or from a file)
  over a partitioned workspace or an ad-hoc partitioning, with any
  gStoreD configuration or any :mod:`repro.api` registry engine
  (``--engine gstored|dream|decomp|cloud|s2x|centralized``), through one
  :class:`~repro.api.Session`; ``--trace PATH`` writes a Chrome trace-event
  JSON of the query's stages and ``--metrics`` prints the session's Prometheus
  exposition (:mod:`repro.obs`);
* ``repro explain``   — show the cost-based plan (statistics summary, chosen
  vertex order, per-step estimates) for a query without executing it;
* ``repro experiment`` — regenerate one of the paper's tables/figures;
* ``repro store``     — build, inspect and compact durable cluster store
  files (:mod:`repro.persist`); ``repro serve --store PATH`` and
  ``repro.open(path=...)`` restart warm from them;
* ``repro serve``     — keep one warm session open and answer SPARQL queries
  over HTTP (``POST /query``, ``GET /healthz``, ``GET /metrics``) with
  bounded admission and an optional result cache (:mod:`repro.api.serving`).

Every subcommand prints plain text so the tool composes with shell pipelines;
``main()`` returns the process exit code and never calls ``sys.exit`` itself,
which keeps it easy to test.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional, Sequence

from .api import Session, engine_aliases, engine_names
from .bench import (
    ablation_series,
    comparison_series,
    format_series,
    format_table,
    partitioning_cost_table,
    per_stage_table,
    scalability_series,
)
from .core import EngineConfig, OptimizationLevel
from .datasets import get_dataset
from .distributed import build_cluster
from .exec import SERIAL, OptionError
from .obs import CATEGORY_PLANNING, MetricsRegistry, Trace
from .partition import (
    load_workspace,
    make_partitioner,
    partitioning_cost,
    refine_partitioning,
    save_workspace,
)
from .planner import QueryPlanner
from .rdf import dump as dump_ntriples
from .rdf import load as load_ntriples
from .sparql import QueryGraph, parse_query, traversal_order

_LEVELS = {
    "gstored": OptimizationLevel.FULL,
    "basic": OptimizationLevel.BASIC,
    "la": OptimizationLevel.LA,
    "lo": OptimizationLevel.LO,
}

def engine_choices() -> tuple:
    """Engine names accepted by ``repro query --engine``.

    The gStoreD optimization levels, every :mod:`repro.api` registry engine,
    and every registry alias (the legacy report names of the simulated
    systems among them).  Computed from the live registry on every call, so
    engines registered through :func:`repro.api.register_engine` are
    immediately reachable from the CLI too.
    """
    return tuple(
        dict.fromkeys(
            list(_LEVELS)
            + [name for name in engine_names() if name != "gstored"]
            + sorted(engine_aliases())
        )
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed SPARQL evaluation with LEC-feature-accelerated partial evaluation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic benchmark dataset")
    generate.add_argument("dataset", choices=("LUBM", "YAGO2", "BTC"))
    generate.add_argument("--scale", type=int, default=1, help="scale factor (default 1)")
    generate.add_argument("--seed", type=int, default=None, help="override the generator seed")
    generate.add_argument("--output", required=True, help="output N-Triples file")

    partition = subparsers.add_parser("partition", help="partition an N-Triples dataset")
    partition.add_argument("input", help="N-Triples file to partition")
    partition.add_argument("--strategy", choices=("hash", "semantic_hash", "metis"), default="hash")
    partition.add_argument("--sites", type=int, default=6, help="number of fragments/sites")
    partition.add_argument("--refine", action="store_true", help="apply cost-guided refinement")
    partition.add_argument("--workspace", help="directory to save the partitioned workspace into")

    query = subparsers.add_parser("query", help="run a SPARQL BGP query over a partitioned dataset")
    source = query.add_mutually_exclusive_group(required=True)
    source.add_argument("--workspace", help="workspace directory written by 'repro partition'")
    source.add_argument("--data", help="N-Triples file to partition on the fly")
    query.add_argument("--strategy", choices=("hash", "semantic_hash", "metis"), default="hash")
    query.add_argument("--sites", type=int, default=6)
    query.add_argument(
        "--engine",
        default="gstored",
        help=f"evaluator to run the query with; one of: {', '.join(engine_choices())}",
    )
    query_text = query.add_mutually_exclusive_group(required=True)
    query_text.add_argument("--query", help="SPARQL query text")
    query_text.add_argument("--query-file", help="file containing the SPARQL query")
    query.add_argument("--show-stats", action="store_true", help="print per-stage statistics")
    query.add_argument("--limit", type=int, default=20, help="maximum solutions to print")
    query.add_argument(
        "--executor",
        default=None,
        help=f"per-site fan-out; the only choice is {SERIAL} (the default)",
    )
    query.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON of the query's stages to PATH "
        "(every engine; open it in Perfetto or chrome://tracing)",
    )
    query.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's metrics in Prometheus text exposition format after the results",
    )
    query.add_argument(
        "--inject-faults",
        metavar="PLAN",
        default=None,
        help="deterministic fault plan, e.g. 'kill:1@partial_evaluation;"
        "flaky:0@candidate_exchange:2' or 'random:SEED' (gStoreD engine "
        "family only; see docs/faults.md for the grammar)",
    )

    explain = subparsers.add_parser("explain", help="show the cost-based query plan without executing")
    explain_source = explain.add_mutually_exclusive_group(required=True)
    explain_source.add_argument("--workspace", help="workspace directory written by 'repro partition'")
    explain_source.add_argument("--data", help="N-Triples file to partition on the fly")
    explain.add_argument("--strategy", choices=("hash", "semantic_hash", "metis"), default="hash")
    explain.add_argument("--sites", type=int, default=6)
    explain_text = explain.add_mutually_exclusive_group(required=True)
    explain_text.add_argument("--query", help="SPARQL query text")
    explain_text.add_argument("--query-file", help="file containing the SPARQL query")
    explain.add_argument(
        "--executor",
        default=None,
        help=f"per-site fan-out; the only choice is {SERIAL} (the default)",
    )
    explain.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON of the statistics collection "
        "and planning phases to PATH",
    )
    explain.add_argument(
        "--metrics",
        action="store_true",
        help="print planning-phase timings in Prometheus text exposition format",
    )

    experiment = subparsers.add_parser("experiment", help="regenerate one of the paper's experiments")
    experiment.add_argument(
        "name",
        choices=("table1", "table2", "table3", "table4", "fig9", "fig10", "fig11", "fig12"),
    )
    experiment.add_argument("--sites", type=int, default=6)

    store = subparsers.add_parser(
        "store", help="build and maintain durable cluster store files (repro.persist)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_build = store_sub.add_parser(
        "build", help="build a store file from a bundled workload"
    )
    store_build.add_argument(
        "--dataset", default="paper", help="bundled workload to snapshot (default: paper)"
    )
    store_build.add_argument("--scale", type=int, default=None, help="dataset scale factor")
    store_build.add_argument("--sites", type=int, default=None, help="number of fragments/sites")
    store_build.add_argument(
        "--partitioner",
        default="hash",
        help="partitioning strategy (default: hash; 'paper' reproduces Fig. 1)",
    )
    store_build.add_argument("--output", required=True, help="store file to write")
    store_build.add_argument(
        "--force", action="store_true", help="replace an existing store file"
    )
    store_info = store_sub.add_parser("info", help="print a store file's manifest and sizes")
    store_info.add_argument("path", help="store file to inspect")
    store_compact = store_sub.add_parser(
        "compact", help="fold the delta journal into a fresh base snapshot"
    )
    store_compact.add_argument("path", help="store file to compact in place")

    serve = subparsers.add_parser(
        "serve", help="serve SPARQL queries over HTTP from one warm session"
    )
    serve.add_argument("--dataset", default="paper", help="bundled workload to open (default: paper)")
    serve.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="durable store file to serve from: an existing file restarts the "
        "session warm from disk (its manifest wins over --dataset/--scale), a "
        "missing one is built once and saved (see docs/persistence.md)",
    )
    serve.add_argument("--scale", type=int, default=None, help="dataset scale factor")
    serve.add_argument("--sites", type=int, default=None, help="number of fragments/sites")
    serve.add_argument(
        "--partitioner",
        choices=("hash", "semantic_hash", "metis", "paper"),
        default="hash",
    )
    serve.add_argument(
        "--engine",
        default="gstored",
        help="default evaluator for requests that do not name one",
    )
    serve.add_argument(
        "--executor",
        default=None,
        help=f"per-site fan-out; the only choice is {SERIAL} (the default)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080, help="TCP port to bind (0 picks a free one)")
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="queries allowed to execute concurrently (default: 4)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="queries allowed to wait for a slot before new ones are rejected "
        "with HTTP 429 (default: 16)",
    )
    serve.add_argument(
        "--result-cache",
        type=int,
        default=0,
        help="enable the session result cache with N entries (default: off)",
    )

    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    spec = get_dataset(args.dataset)
    kwargs = {"scale": args.scale}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    graph = spec.generate(**kwargs)
    count = dump_ntriples(graph, args.output)
    print(f"wrote {count} triples to {args.output} ({args.dataset}, scale {args.scale})")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    graph = load_ntriples(args.input)
    partitioner = make_partitioner(args.strategy, args.sites)
    partitioned = partitioner.partition(graph)
    if args.refine:
        partitioned, report = refine_partitioning(partitioned)
        print(
            f"refinement: {report.moves} moves over {report.passes} passes, "
            f"cost {report.initial_cost:.2f} -> {report.final_cost:.2f}"
        )
    cost = partitioning_cost(partitioned)
    print(format_table([{**partitioned.stats(), "cost": round(cost.cost, 2)}]))
    if args.workspace:
        paths = save_workspace(partitioned, args.workspace)
        print(f"workspace saved: {paths['graph']} + {paths['assignment']}")
    return 0


def _load_cluster(args: argparse.Namespace):
    if args.workspace:
        partitioned = load_workspace(args.workspace)
    else:
        graph = load_ntriples(args.data)
        partitioned = make_partitioner(args.strategy, args.sites).partition(graph)
    return build_cluster(partitioned)


def _cmd_query(args: argparse.Namespace) -> int:
    engine_name = args.engine.lower()
    if engine_name not in engine_choices():
        raise ValueError(
            f"unknown engine {args.engine!r}; choose from: {', '.join(engine_choices())}"
        )
    level = _LEVELS.get(engine_name)
    if level is None and engine_aliases().get(engine_name) != "gstored":
        # Baselines run a fixed strategy: no per-site fan-out, and no
        # per-site stages to fail.  A session builds them without its fault
        # plan by design, so this check is what keeps a baseline run from
        # silently ignoring --inject-faults.
        for flag, value, reason in (
            ("--executor", args.executor, "runs its fixed strategy without a per-site fan-out"),
            ("--inject-faults", args.inject_faults, "has no per-site stages for fault injection"),
        ):
            if value is not None:
                raise ValueError(
                    f"{flag} only applies to the gStoreD engine family "
                    f"({', '.join(_LEVELS)}); engine {engine_name!r} {reason}"
                )
    cluster = _load_cluster(args)
    faults = _resolve_fault_plan(args.inject_faults, cluster) if args.inject_faults else None
    with Session.from_cluster(
        cluster,
        engine="gstored" if level is not None else engine_name,
        config=EngineConfig.for_level(level) if level is not None else None,
        executor=args.executor,
        trace=args.trace is not None,
        faults=faults,
    ) as session:
        result = session.query(_read_query_text(args), query_name="cli")

    print(f"{len(result.results)} solutions ({result.statistics.engine})")
    for row in result.results.to_table()[: args.limit]:
        print("  " + ", ".join(f"{key}={value}" for key, value in row.items()))
    if faults is not None:
        work = result.statistics.work
        print(
            f"faults: plan [{faults.describe()}] -> "
            f"retries={int(work.get('task_retries', 0))}, "
            f"site_failures={int(work.get('site_failures', 0))}, "
            f"recoveries={int(work.get('site_recoveries', 0))}"
        )
        extra = result.statistics.extra
        if extra.get("degraded"):
            missing = ", ".join(str(sid) for sid in extra.get("missing_sites", ()))
            print(f"WARNING: partial results — site(s) {missing} lost unrecoverably")
    if args.show_stats:
        print(format_table([stage.as_dict() for stage in result.statistics.stages]))
        print(
            f"total: {result.statistics.total_time_ms:.2f} ms, "
            f"{result.statistics.total_shipment_kb:.2f} KB shipped"
        )
    if args.trace is not None:
        result.trace.save(args.trace)
        print(f"trace: wrote {len(result.trace.spans)} spans to {args.trace}")
    if args.metrics:
        print(session.metrics.prometheus_text(), end="")
    return 0


def _resolve_fault_plan(spec: str, cluster):
    """Parse ``--inject-faults`` into a :class:`~repro.faults.FaultPlan`.

    ``random:SEED`` draws a survivable random plan over the cluster's actual
    site ids (which is why resolution waits until the cluster is loaded);
    anything else goes through the ``KIND:SITE@STAGE`` grammar.
    """
    from .faults import FaultPlan

    text = spec.strip()
    if text.lower().startswith("random:"):
        seed_text = text.split(":", 1)[1].strip()
        try:
            seed = int(seed_text)
        except ValueError:
            raise ValueError(
                f"--inject-faults random:SEED needs an integer seed, got {seed_text!r}"
            ) from None
        return FaultPlan.random(seed, sorted(cluster.site_ids))
    return FaultPlan.parse(text)


def _read_query_text(args: argparse.Namespace) -> str:
    if args.query_file:
        return Path(args.query_file).read_text(encoding="utf-8")
    return args.query


def _cmd_explain(args: argparse.Namespace) -> int:
    trace = Trace("explain") if args.trace else None
    cluster = _load_cluster(args)
    query = parse_query(_read_query_text(args))
    with Session.from_cluster(cluster, executor=args.executor) as session:
        stats_started = time.perf_counter()
        stats_cm = (
            trace.span("collect_statistics", CATEGORY_PLANNING)
            if trace is not None
            else nullcontext()
        )
        with stats_cm:
            statistics = session.cluster.graph_statistics()
        stats_seconds = time.perf_counter() - stats_started
        planner = session.planner
    print(f"statistics: {statistics.summary()} (aggregated over {cluster.num_sites} sites)")
    components = query.bgp.connected_components()
    plan_started = time.perf_counter()
    for position, component in enumerate(components):
        query_graph = QueryGraph(component)
        if len(components) > 1:
            print(f"-- component {position + 1}/{len(components)} --")
        print(f"query shape: {query_graph.classify_shape()}")
        plan_cm = (
            trace.span("plan", CATEGORY_PLANNING, component=position)
            if trace is not None
            else nullcontext()
        )
        with plan_cm:
            explained = planner.explain(query_graph)
        print(explained)
        static = " -> ".join(term.n3() for term in traversal_order(query_graph))
        print(f"static (seed) order: {static}")
    plan_seconds = time.perf_counter() - plan_started
    if trace is not None:
        trace.finish(components=len(components))
        trace.save(args.trace)
        print(f"trace: wrote {len(trace.spans)} spans to {args.trace}")
    if args.metrics:
        registry = MetricsRegistry()
        help_text = "Wall-clock seconds spent in each planning-side phase."
        registry.histogram("repro_stage_seconds", help_text, stage="statistics").observe(
            stats_seconds
        )
        registry.histogram("repro_stage_seconds", help_text, stage="planning").observe(
            plan_seconds
        )
        print(registry.prometheus_text(), end="")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    sites = args.sites
    if args.name == "table1":
        print(format_table(per_stage_table("LUBM", num_sites=sites)))
    elif args.name == "table2":
        print(format_table(per_stage_table("YAGO2", num_sites=sites)))
    elif args.name == "table3":
        print(format_table(per_stage_table("BTC", num_sites=sites)))
    elif args.name == "table4":
        print(format_table(partitioning_cost_table(num_sites=sites)))
    elif args.name == "fig9":
        print(format_series("Fig. 9(a) LUBM", ablation_series("LUBM", ("LQ1", "LQ3", "LQ6", "LQ7"), num_sites=sites)))
        print(format_series("Fig. 9(b) YAGO2", ablation_series("YAGO2", ("YQ1", "YQ2", "YQ3", "YQ4"), num_sites=sites)))
    elif args.name == "fig10":
        from .bench import lec_feature_shipment_series, partitioning_performance_series

        print(
            format_series(
                "Fig. 10(a) LUBM times",
                partitioning_performance_series("LUBM", ("LQ1", "LQ3", "LQ6", "LQ7"), num_sites=sites),
            )
        )
        print(
            format_series(
                "Fig. 10(b) YAGO2 LEC shipment",
                lec_feature_shipment_series("YAGO2", ("YQ1", "YQ2", "YQ3", "YQ4"), num_sites=sites),
            )
        )
    elif args.name == "fig11":
        print(format_series("Fig. 11(a) stars", scalability_series(("LQ2", "LQ4", "LQ5"), num_sites=sites)))
        print(format_series("Fig. 11(b) others", scalability_series(("LQ1", "LQ3", "LQ6", "LQ7"), num_sites=sites)))
    elif args.name == "fig12":
        for dataset in ("YAGO2", "LUBM", "BTC"):
            print(format_series(f"Fig. 12 {dataset}", comparison_series(dataset, num_sites=sites)))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .persist import ClusterStore

    if args.store_command == "build":
        output = Path(args.output)
        if output.exists() and not args.force:
            raise ValueError(
                f"store file already exists: {output} (pass --force to rebuild it)"
            )
        if output.exists():
            output.unlink()
        from .api import open_session

        started = time.perf_counter()
        # open_session(path=...) validates dataset/partitioner (enumerating
        # the choices on error), builds the workload and snapshots it.
        session = open_session(
            args.dataset,
            path=str(output),
            scale=args.scale,
            sites=args.sites,
            partitioner=args.partitioner,
        )
        try:
            info = session.store.info()
        finally:
            session.close()
        elapsed = time.perf_counter() - started
        print(f"built {output} in {elapsed:.2f} s")
        for key in ("dataset", "scale", "num_fragments", "base_triples", "base_terms", "file_bytes"):
            print(f"  {key}: {info[key]}")
        return 0
    if args.store_command == "info":
        with ClusterStore.open(args.path, read_only=True) as store:
            info = store.info()
        for key, value in info.items():
            print(f"{key}: {value}")
        return 0
    # compact
    with ClusterStore.open(args.path) as store:
        before = store.info()["file_bytes"]
        report = store.compact()
    print(
        f"compacted {args.path}: folded {report['folded_deltas']} deltas, "
        f"{before} -> {report['file_bytes']} bytes"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .api import QueryServer, open_session

    open_kwargs = dict(
        partitioner=args.partitioner,
        engine=args.engine,
        executor=args.executor,
        result_cache=args.result_cache,
    )
    if args.store is not None:
        open_kwargs["path"] = args.store
    if args.scale is not None:
        open_kwargs["scale"] = args.scale
    if args.sites is not None:
        open_kwargs["sites"] = args.sites
    session = open_session(args.dataset, **open_kwargs)
    try:
        # No context manager here: ``with`` would start the background
        # serving thread and serve_forever() would run a second accept loop
        # on the same socket — the CLI serves on this thread alone.
        server = QueryServer(
            session,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
        )
        host, port = server.address
        print(
            f"serving {session.dataset} on http://{host}:{port} "
            f"(engine={session.default_engine}, executor={session.backend.name}, "
            f"max_inflight={args.max_inflight}, max_queue={args.max_queue}, "
            f"result_cache={args.result_cache})",
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", flush=True)
        finally:
            server.shutdown()
    finally:
        session.close()
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "partition": _cmd_partition,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "experiment": _cmd_experiment,
    "store": _cmd_store,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by both the console script and the tests."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return _COMMANDS[args.command](args)
    except OptionError as error:
        # The library names its keyword arguments; say which flags they were.
        flags = " ".join(
            f"--{name.replace('_', '-')} {value}"
            for name, value in error.options.items()
            if value is not None
        )
        print(f"error: {flags}: {error}" if flags else f"error: {error}", file=sys.stderr)
        return 2
    except (FileNotFoundError, KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
