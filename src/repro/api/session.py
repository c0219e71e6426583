"""The :class:`Session` facade — the package's front door.

A session owns everything one line of research code used to wire by hand:
workload preparation (dataset generation, partitioning, cluster
construction), the engine instances, and the plan cache living on the
cluster.  The canonical entry point is :func:`open_session`, re-exported as
``repro.open``::

    import repro

    with repro.open(dataset="lubm", scale=1, sites=4, partitioner="metis",
                    engine="gstored") as session:
        result = session.query("LQ1")          # a named benchmark query...
        result = session.query("SELECT ?s WHERE { ?s ?p ?o }")  # ...or raw SPARQL
        print(result.sorted_rows(), result.statistics.total_time_ms)
        print(session.explain("LQ1"))          # the cost-based plan

Every evaluator of the paper's comparison is reachable from the same
session (``session.query(..., engine="dream")``); engines are created
lazily and cached.  Closing the session (or
leaving the ``with`` block) closes every engine it created.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import fields
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.config import EngineConfig
from ..datasets.registry import DATASETS, get_dataset
from ..distributed.cluster import Cluster, build_cluster
from ..distributed.network import NetworkModel
from ..exec import OptionError, SerialBackend, make_backend
from ..faults import FaultPlan
from ..obs import (
    CATEGORY_PLANNING,
    MetricsRegistry,
    StageProfiler,
    Trace,
    Tracer,
    record_query,
    record_query_failure,
)
from ..partition.fragment import PartitionedGraph
from ..partition.partitioners import make_partitioner
from ..planner.optimizer import QueryPlanner
from ..store.encoding import encoded_patches, encoded_rebuilds
from ..rdf.graph import RDFGraph
from ..sparql.algebra import SelectQuery
from ..sparql.parser import parse_query
from ..sparql.query_graph import QueryGraph
from .cache import ResultCache, result_cache_key
from .engines import QueryEngine, engine_spec, make_engine, resolve_engine_name
from .result import Result

#: Names accepted for the paper's running example (Figs. 1-3).
PAPER_EXAMPLE_NAMES = ("paper", "example", "paper_example")

#: ``partitioner=`` values reproducing the exact Fig. 1 fragment assignment.
FIGURE1_PARTITIONERS = ("paper", "figure1")


def _dataset_choices() -> Tuple[str, ...]:
    return tuple(sorted(DATASETS)) + ("paper",)


def _partitioner_choices() -> Tuple[str, ...]:
    from ..partition.partitioners import PARTITIONER_REGISTRY

    return tuple(sorted(PARTITIONER_REGISTRY)) + ("paper (dataset='paper' only)",)


def _partition(strategy: str, num_sites: int, graph: RDFGraph):
    """Partition ``graph``, turning an unknown strategy into a ValueError
    that enumerates the valid choices (like every other bad argument)."""
    try:
        return make_partitioner(strategy, num_sites).partition(graph)
    except KeyError:
        raise ValueError(
            f"unknown partitioner {strategy!r}; choose from: "
            f"{', '.join(_partitioner_choices())}"
        ) from None


class _ReadWriteGate:
    """Many concurrent readers (queries) or one exclusive writer (update).

    Writers are preferred: once one waits, new readers queue behind it, so
    a steady stream of queries cannot starve a mutation.  Neither side is
    reentrant — a query never issues another query or an update on the same
    thread, and ``update`` never queries.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class QueryBatch:
    """What :meth:`Session.query_many` returns: results plus a batch report.

    ``results`` holds one :class:`Result` per input query, in input order
    (the batch iterates and indexes like that list); ``report`` holds one
    plain dict per query with the engine/backend the query ran on and its
    headline numbers (rows, total time, shipment, cache hit) — ready for a
    table or a JSON dump without touching the statistics objects.
    """

    def __init__(self, results: List[Result], report: List[Dict[str, object]]) -> None:
        self.results = list(results)
        self.report = list(report)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> Result:
        return self.results[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<QueryBatch queries={len(self.results)}>"


class Session:
    """One prepared workload plus the engines to query it.

    Construct through :func:`open_session` (datasets by name), or through
    :meth:`from_partitioned` / :meth:`from_cluster` for ad-hoc graphs the
    caller partitioned itself (federation scenarios).  Sessions are context
    managers; :meth:`close` is idempotent.

    Sessions are safe to share between threads: concurrent :meth:`query`
    calls each get their own shipment ledger on the cluster's message bus
    (see :class:`~repro.distributed.ShipmentLedger`), engine construction
    and lifecycle are lock-guarded, and the determinism contract holds —
    a query returns the same answers, statistics and shipment fingerprint
    whether it ran alone or next to others (``docs/serving.md``).
    :meth:`update` serializes against in-flight queries through an exclusive
    writer gate, so mutating a session that is also serving traffic is safe.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        dataset: str = "",
        scale: Optional[int] = None,
        queries: Optional[Dict[str, SelectQuery]] = None,
        engine: str = "gstored",
        executor: Optional[str] = None,
        config: Optional[EngineConfig] = None,
        trace: bool = False,
        profile: Optional[bool] = None,
        result_cache: int = 0,
        faults: Optional[FaultPlan] = None,
        store: Optional[object] = None,
        **config_options,
    ) -> None:
        self.cluster = cluster
        #: A :class:`~repro.persist.ClusterStore` this session *owns* (it was
        #: opened or created on the session's behalf by ``repro.open(path=…)``)
        #: and closes in :meth:`close`.  Independent of :attr:`store`, which
        #: reflects whatever store the cluster currently has attached.
        self._owned_store = store
        self.dataset = dataset
        self.scale = scale
        #: Fault-injection plan applied to every gStoreD-family query of the
        #: session (``None`` — the default — injects nothing; see
        #: :mod:`repro.faults` and ``docs/faults.md``).
        self.faults = faults
        #: Queries that returned *partial* answers after an unrecoverable
        #: site loss (``result.degraded``); surfaced by ``/healthz``.
        self.degraded_queries = 0
        #: Per-query tracer (see :mod:`repro.obs`), or ``None`` when the
        #: session was opened without ``trace=True``.  Each ``query()`` call
        #: starts one trace; the returned result carries it as ``.trace``.
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        #: Session-wide metrics registry, always on (recording a finished
        #: query's statistics costs microseconds; the engines themselves
        #: never touch it).
        self.metrics = MetricsRegistry()
        #: Per-stage cProfile capture — enabled by ``profile=True`` or the
        #: ``REPRO_PROFILE`` environment variable; ``None`` when off.
        self.profiler: Optional[StageProfiler] = StageProfiler.from_env(profile)
        #: Named benchmark queries of the workload; ``query()`` accepts these
        #: names directly.
        self.queries: Dict[str, SelectQuery] = dict(queries or {})
        if result_cache < 0:
            raise OptionError(
                f"result_cache must be >= 0 (0 disables it), got {result_cache}",
                result_cache=result_cache,
            )
        self.config = _engine_config(config, config_options)
        #: The fan-out handle for callers that run site tasks themselves
        #: (engines run theirs directly); ``make_backend`` is the one place
        #: ``executor`` is checked.
        self.backend: SerialBackend = make_backend(executor)
        # resolve_engine_name validates eagerly, so an unknown default engine
        # fails at open() time; construction itself stays lazy.
        self.default_engine = resolve_engine_name(engine)
        self._engines: Dict[str, QueryEngine] = {}
        self._closed = False
        # Guards lazy engine construction and close(); per-query state never
        # takes it, so queries only contend here on an engine's first use.
        self._lock = threading.RLock()
        # Serializes update() against in-flight queries: every query holds
        # the read side for its whole execution, update() takes the write
        # side, so a mutation can never interleave with a query that would
        # observe half-patched encodings or fragments.
        self._mutation_gate = _ReadWriteGate()
        #: Opt-in result cache (``result_cache=N`` entries); ``None`` — the
        #: default — preserves the execute-every-call contract.
        self.result_cache: Optional[ResultCache] = (
            ResultCache(result_cache, self.metrics) if result_cache else None
        )
        # record_query reports encoded-graph rebuilds (and delta patches) as
        # deltas since open, so one session's metrics never absorb another
        # session's builds.
        self._rebuilds_at_open = encoded_rebuilds()
        self._patches_at_open = encoded_patches()

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_partitioned(
        cls,
        partitioned: PartitionedGraph,
        *,
        network: Optional[NetworkModel] = None,
        **options,
    ) -> "Session":
        """Open a session over a graph the caller already partitioned."""
        return cls(build_cluster(partitioned, network=network), **options)

    @classmethod
    def from_cluster(cls, cluster: Cluster, **options) -> "Session":
        """Open a session over an existing cluster (shared with the caller).

        The session still owns its engines — but never the
        cluster, which the caller keeps and may pass to several sessions.
        """
        return cls(cluster, **options)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> RDFGraph:
        """The full (unpartitioned) RDF graph behind the cluster."""
        return self.cluster.graph

    @property
    def partitioned(self) -> PartitionedGraph:
        """The partitioned graph the cluster was built from."""
        return self.cluster.partitioned_graph

    @property
    def num_sites(self) -> int:
        """Number of simulated sites."""
        return self.cluster.num_sites

    @property
    def planner(self) -> QueryPlanner:
        """The coordinator's cost-based planner (plan cache included).

        The planner is owned by the cluster so its cache survives engine
        churn; the session exposes it for cache introspection
        (``session.planner.cache.hit_rate``) and explicit warm-up.
        """
        return self.cluster.coordinator_planner(self.config.plan_cache_size)

    @property
    def store(self):
        """The cluster's attached :class:`~repro.persist.ClusterStore`, or
        ``None`` for a purely in-memory session."""
        return self.cluster.store

    # ------------------------------------------------------------------
    # Engines
    # ------------------------------------------------------------------
    def engine(self, name: Optional[str] = None) -> QueryEngine:
        """The (cached) evaluator for ``name`` — default: the session's engine.

        gStoreD-family engines receive the session's :class:`EngineConfig`
        and fault plan; fixed-strategy engines (baselines, centralized) take
        neither.  Construction is lock-guarded:
        two threads asking for the same engine concurrently get the *same*
        instance, never a duplicate whose twin leaks unclosed.
        """
        self._ensure_open()
        canonical = resolve_engine_name(name) if name is not None else self.default_engine
        with self._lock:
            self._ensure_open()
            built = self._engines.get(canonical)
            if built is None:
                if engine_spec(canonical).accepts_config:
                    built = make_engine(
                        canonical,
                        self.cluster,
                        config=self.config,
                        faults=self.faults,
                    )
                else:
                    built = make_engine(canonical, self.cluster)
                self._engines[canonical] = built
            return built

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _resolve_query(self, query: Union[str, SelectQuery]) -> Tuple[SelectQuery, str]:
        """Accept a parsed query, a named benchmark query, or SPARQL text."""
        if isinstance(query, SelectQuery):
            return query, ""
        if query in self.queries:
            return self.queries[query], query
        return parse_query(query), ""

    def query(
        self,
        query: Union[str, SelectQuery],
        *,
        engine: Optional[str] = None,
        query_name: str = "",
    ) -> Result:
        """Parse, plan and execute ``query``; returns a :class:`Result`.

        ``query`` may be a parsed :class:`SelectQuery`, the name of one of
        the workload's benchmark queries (``session.queries``), or raw SPARQL
        text.  Execution runs under a per-query shipment ledger on the
        cluster's message bus, so each result's statistics describe exactly
        one execution — even with other queries in flight on other threads —
        and the result keeps its own detached copies of the statistics and
        the shipment breakdown, so a later ``query()`` cannot zero them
        retroactively.

        When the session traces (``repro.open(..., trace=True)``) the
        returned result additionally carries ``result.trace``; the session's
        :attr:`metrics` registry is updated after every query either way —
        including failures, which finish the trace with an ``error``
        attribute and count into ``repro_query_failures_total`` before the
        exception propagates.

        Queries hold the session's mutation gate (read side) while they run,
        so a concurrent :meth:`update` waits for them instead of mutating
        the cluster under their feet.
        """
        self._ensure_open()
        with self._mutation_gate.read():
            return self._execute(query, engine=engine, query_name=query_name)

    def _execute(
        self,
        query: Union[str, SelectQuery],
        *,
        engine: Optional[str],
        query_name: str,
    ) -> Result:
        chosen = self.engine(engine)
        engine_label = chosen.name
        trace: Optional[Trace] = None
        if self.tracer is not None:
            trace = self.tracer.start_trace(
                "query", engine=engine_label, dataset=self.dataset
            )
        try:
            if trace is not None:
                with trace.span("parse", CATEGORY_PLANNING) as span:
                    parsed, resolved_name = self._resolve_query(query)
                    span.set(query_name=query_name or resolved_name or "(inline)")
            else:
                parsed, resolved_name = self._resolve_query(query)
            cache_key = None
            if self.result_cache is not None:
                canonical = (
                    resolve_engine_name(engine) if engine is not None else self.default_engine
                )
                cache_key = result_cache_key(
                    parsed, engine=canonical, graph_version=self.graph.version
                )
                hit = self.result_cache.get(cache_key)
                if hit is not None:
                    if trace is not None:
                        trace.finish(rows=len(hit), cache_hit=True)
                        hit.trace = trace
                    return hit
            with self.cluster.bus.ledger() as ledger:
                result = chosen.execute(
                    parsed,
                    query_name=query_name or resolved_name,
                    dataset=self.dataset,
                    trace=trace,
                    profiler=self.profiler,
                )
        except BaseException as error:
            # Exception-safe finalization: the trace must not leak an open
            # span tree, and the failure must leave a metrics footprint.
            if trace is not None:
                trace.finish(error=f"{type(error).__name__}: {error}")
            record_query_failure(
                self.metrics, engine=engine_label, backend=self.backend.name
            )
            raise
        shipment = ledger.snapshot()
        result.detach_statistics()
        result.shipment = shipment
        if trace is not None:
            trace.finish(rows=len(result))
            result.trace = trace
        record_query(
            self.metrics,
            result.statistics,
            shipment=shipment,
            engine=engine_label,
            encoded_rebuilds=encoded_rebuilds() - self._rebuilds_at_open,
            encoded_patches=encoded_patches() - self._patches_at_open,
        )
        if result.degraded:
            with self._lock:
                self.degraded_queries += 1
        if cache_key is not None and not result.degraded:
            self.result_cache.put(cache_key, result)
        return result

    def query_many(
        self,
        queries: Iterable[Union[str, SelectQuery]],
        *,
        engine: Optional[str] = None,
    ) -> QueryBatch:
        """Execute a batch of queries and return results plus a per-query report.

        The batch amortizes what single calls pay per query: every input is
        parsed up front, and for planning engines the coordinator planner
        (graph statistics + plan cache) is warmed once before the first
        execution instead of on its critical path — so repeated templates in
        the batch plan from the shared cache.  Execution itself runs through
        :meth:`query`, keeping the per-query ledger/trace/metrics contract.
        """
        self._ensure_open()
        resolved = [self._resolve_query(item) for item in queries]
        canonical = resolve_engine_name(engine) if engine is not None else self.default_engine
        if engine_spec(canonical).accepts_config and self.config.use_planner:
            self.planner  # noqa: B018 — warm statistics + plan cache once
        results: List[Result] = []
        report: List[Dict[str, object]] = []
        for parsed, name in resolved:
            result = self.query(parsed, engine=engine, query_name=name)
            results.append(result)
            stats = result.statistics
            report.append(
                {
                    "query_name": name or stats.query_name or "(inline)",
                    "engine": stats.engine,
                    "backend": self.backend.name,
                    "rows": len(result),
                    "total_time_ms": round(stats.total_time_ms, 3),
                    "shipped_bytes": result.shipment.total_bytes if result.shipment else 0,
                    "messages": result.shipment.total_messages if result.shipment else 0,
                    "cache_hit": result.cache_hit,
                }
            )
        return QueryBatch(results, report)

    def update(self, add: Iterable = (), remove: Iterable = ()):
        """Apply a triple delta to the session's cluster, in place.

        Thin veneer over :meth:`~repro.distributed.Cluster.apply`: removals
        run first, then additions; no-ops are skipped; every index, fragment
        and statistic is *patched* rather than rebuilt; and with a
        store-backed session (``repro.open(path=…)``) the effective ops are
        journaled to the store's write-ahead delta table before this returns,
        so a reopened session resumes from the mutated state.

        Updates take the session's mutation gate exclusively: an update
        waits for every in-flight :meth:`query` (on any thread, including
        :class:`~repro.api.AsyncSession` and ``repro serve`` traffic) to
        drain, runs alone, and only then lets queued queries proceed — no
        caller discipline required, and no query ever observes half-patched
        encodings or fragments.  Returns the
        :class:`~repro.distributed.AppliedDelta` summary.
        """
        self._ensure_open()
        with self._mutation_gate.write():
            return self.cluster.apply(add=add, remove=remove)

    def explain(self, query: Union[str, SelectQuery]) -> str:
        """The cost-based plan for ``query`` (per connected component), as text."""
        self._ensure_open()
        parsed, _ = self._resolve_query(query)
        planner = self.planner
        lines = []
        components = parsed.bgp.connected_components()
        for position, component in enumerate(components):
            query_graph = QueryGraph(component)
            if len(components) > 1:
                lines.append(f"-- component {position + 1}/{len(components)} --")
            lines.append(f"query shape: {query_graph.classify_shape()}")
            lines.append(planner.explain(query_graph))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("this Session is closed; open a new one with repro.open(...)")

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed session rejects queries)."""
        return self._closed

    def close(self) -> None:
        """Close every engine the session created, then the owned store.

        Every engine gets its ``close()`` call and the store is closed even
        when an engine's close raises — the first such exception is
        re-raised after the cleanup completes.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            engines = list(self._engines.values())
            self._engines.clear()
        first_error: Optional[BaseException] = None
        try:
            for engine in engines:
                try:
                    engine.close()
                except BaseException as error:
                    if first_error is None:
                        first_error = error
        finally:
            if self._owned_store is not None:
                self._owned_store.close()
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "closed" if self._closed else "open"
        return (
            f"<Session {state} dataset={self.dataset!r} sites={self.num_sites} "
            f"engine={self.default_engine!r} executor={self.backend.name!r}>"
        )


class _UnknownOptionError(OptionError, TypeError):
    """An unknown keyword: an :class:`OptionError` that is also the ``TypeError``
    Python raises for an unexpected keyword argument."""


def _engine_config(config: Optional[EngineConfig], options: Dict[str, object]) -> EngineConfig:
    """``config`` (default: the full gStoreD configuration) with ``options`` applied.

    A keyword that is not an :class:`EngineConfig` field raises
    :class:`OptionError` (also a ``TypeError``) naming it.
    """
    config = config if config is not None else EngineConfig.full()
    unknown = sorted(set(options) - {field.name for field in fields(EngineConfig)})
    if unknown:
        raise _UnknownOptionError(
            f"unknown option(s): {', '.join(unknown)}",
            **{name: options[name] for name in unknown},
        )
    return config.with_options(**options) if options else config


def _prepare_workload(
    name: str, strategy: str, scale: Optional[int], sites: Optional[int]
) -> Tuple[PartitionedGraph, str, Optional[int], Dict[str, SelectQuery]]:
    """Generate and partition one bundled workload.

    Returns ``(partitioned, dataset_name, scale, queries)`` — the pieces both
    the in-memory and the store-backed ``open_session`` paths assemble their
    session from.
    """
    if name.lower() in PAPER_EXAMPLE_NAMES:
        from ..datasets.paper_example import (
            build_example_graph,
            build_example_partitioning,
            example_query,
        )

        num_sites = sites if sites is not None else 3
        if strategy in FIGURE1_PARTITIONERS:
            if num_sites != 3:
                raise ValueError(
                    f"the Fig. 1 partitioning has exactly 3 fragments; got sites={num_sites}"
                )
            partitioned = build_example_partitioning()
        else:
            partitioned = _partition(strategy, num_sites, build_example_graph())
        return partitioned, "paper-example", None, {"example": example_query()}

    if strategy in FIGURE1_PARTITIONERS:
        raise ValueError(
            f"partitioner {strategy!r} reproduces the Fig. 1 example "
            f"partitioning and only applies to dataset='paper'; choose from: "
            f"{', '.join(_partitioner_choices())}"
        )
    try:
        spec = get_dataset(name.upper())
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; choose from: {', '.join(_dataset_choices())}"
        ) from None
    chosen_scale = scale if scale is not None else spec.default_scale
    graph = spec.generate(chosen_scale)
    num_sites = sites if sites is not None else 6
    partitioned = _partition(strategy, num_sites, graph)
    return partitioned, spec.name, chosen_scale, spec.queries()


def _workload_queries(dataset_name: str) -> Dict[str, SelectQuery]:
    """The named benchmark queries for a store manifest's dataset name."""
    if not dataset_name or dataset_name.lower() in ("paper-example",) + PAPER_EXAMPLE_NAMES:
        from ..datasets.paper_example import example_query

        return {"example": example_query()}
    try:
        return get_dataset(dataset_name.upper()).queries()
    except KeyError:
        return {}


def open_session(
    dataset: str = "paper",
    *,
    path: Optional[str] = None,
    scale: Optional[int] = None,
    sites: Optional[int] = None,
    partitioner: str = "hash",
    engine: str = "gstored",
    executor: Optional[str] = None,
    config: Optional[EngineConfig] = None,
    network: Optional[NetworkModel] = None,
    trace: bool = False,
    profile: Optional[bool] = None,
    result_cache: int = 0,
    faults: Optional[FaultPlan] = None,
    **config_options,
) -> Session:
    """Open a :class:`Session` over one of the bundled workloads.

    ``dataset`` is ``"lubm"``, ``"yago2"``, ``"btc"`` (case-insensitive) or
    ``"paper"`` for the running example of Figs. 1-3 (whose
    ``partitioner="paper"`` reproduces the exact Fig. 1 fragment
    assignment).  ``engine`` is any :func:`~repro.api.make_engine` registry
    name; ``executor`` may only be ``"serial"`` (see
    :func:`~repro.exec.make_backend`);
    ``trace=True`` turns on per-query tracing (results gain ``.trace``) and
    ``profile=True`` per-stage profiling (see :mod:`repro.obs`);
    ``result_cache=N`` enables the opt-in session result cache (N entries,
    see :mod:`repro.api.cache`); ``faults=FaultPlan.parse(...)`` injects
    deterministic site failures into every gStoreD-family query (see
    :mod:`repro.faults` and ``docs/faults.md``); any extra keyword becomes an
    :class:`EngineConfig` option (``use_lec_pruning=False``,
    ``bit_vector_bits=256``, ...).  This function is re-exported as
    ``repro.open``.

    ``path`` makes the session durable (see :mod:`repro.persist` and
    ``docs/persistence.md``): an existing store file is opened and its
    cluster rebuilt from disk — the file's manifest, not the ``dataset`` /
    ``scale`` / ``partitioner`` arguments, decides the workload — while a
    missing file is built from those arguments once and saved, so the next
    ``repro.open(path=…)`` restarts warm.  Either way the session journals
    :meth:`Session.update` deltas into the file and closes it on exit.
    """
    name = dataset.strip()
    strategy = partitioner.strip().lower()
    # Reject bad options before any dataset is generated or store file written.
    make_backend(executor)
    session_options = dict(
        engine=engine,
        executor=executor,
        config=_engine_config(config, config_options),
        trace=trace,
        profile=profile,
        result_cache=result_cache,
        faults=faults,
    )
    if path is not None:
        from pathlib import Path

        from ..persist import ClusterStore

        if Path(path).exists():
            store = ClusterStore.open(path)
            try:
                return Session.from_cluster(
                    store.load_cluster(network=network),
                    dataset=store.dataset,
                    scale=store.scale,
                    queries=_workload_queries(store.dataset),
                    store=store,
                    **session_options,
                )
            except BaseException:
                store.close()
                raise
        partitioned, dataset_name, chosen_scale, queries = _prepare_workload(
            name, strategy, scale, sites
        )
        cluster = build_cluster(partitioned, network=network)
        store = ClusterStore.create(
            path, partitioned, dataset=dataset_name, scale=chosen_scale
        )
        try:
            # The store collected per-fragment statistics while snapshotting;
            # hand them to the sites so nobody collects the same numbers twice.
            for site in cluster:
                statistics = store.load_statistics(site.site_id)
                if statistics is not None:
                    site.store.preload_statistics(statistics)
            cluster.attach_store(store)
            return Session.from_cluster(
                cluster,
                dataset=dataset_name,
                scale=chosen_scale,
                queries=queries,
                store=store,
                **session_options,
            )
        except BaseException:
            store.close()
            raise
    partitioned, dataset_name, chosen_scale, queries = _prepare_workload(
        name, strategy, scale, sites
    )
    return Session.from_partitioned(
        partitioned,
        network=network,
        dataset=dataset_name,
        scale=chosen_scale,
        queries=queries,
        **session_options,
    )
