"""Execution backends scheduling the engine's per-site work.

The paper's pipeline is embarrassingly parallel between stages' barriers:
candidate compression, partial evaluation and LEC feature extraction all run
*independently at each site* before the coordinator acts.  The seed engine
nevertheless walked the sites in a sequential ``for`` loop; this module
abstracts that loop behind an :class:`ExecutorBackend` so the same engine
code can run the per-site bodies serially (the default, and the reference
behavior), on a thread pool, or on a process pool that sidesteps the GIL for
real multi-core speedup.

Determinism contract
--------------------

Whatever the backend, :meth:`ExecutorBackend.map` returns results in
*submission order* — never completion order — and :func:`run_per_site` /
:meth:`ExecutorBackend.map_site_tasks` always pair sites with results in
ascending ``site_id`` order.  Engines keep all shared-state mutation
(message-bus accounting, statistics accumulation) in the serial merge that
consumes these ordered results, so answers, ``shipped_bytes`` and
``messages`` are bit-identical regardless of the backend or worker count.
The cross-engine equivalence and determinism tests under ``tests/exec/``
enforce exactly this.  See ``docs/execution.md`` for the full contract and
the picklability requirements of process-executed tasks.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple, TypeVar

from .tasks import PAYLOAD_BOUND_STAGES, SiteTask, SiteTaskResult, run_site_task

T = TypeVar("T")
R = TypeVar("R")

#: Backend names accepted by :func:`make_backend`.
SERIAL = "serial"
THREADS = "threads"
PROCESSES = "processes"
EXECUTOR_CHOICES = (SERIAL, THREADS, PROCESSES)

#: Environment variables resolving the defaults (used by the CI matrix to run
#: the whole suite over the threaded and process paths without touching any
#: test).
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"
MAX_WORKERS_ENV_VAR = "REPRO_MAX_WORKERS"


def default_max_workers() -> int:
    """Worker count used when none is configured: $REPRO_MAX_WORKERS or CPU count."""
    from_env = os.environ.get(MAX_WORKERS_ENV_VAR)
    if from_env is not None:
        try:
            workers = int(from_env)
        except ValueError:
            raise ValueError(
                f"${MAX_WORKERS_ENV_VAR} must be an integer worker count, got {from_env!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"{MAX_WORKERS_ENV_VAR} must be >= 1, got {workers}")
        return workers
    return os.cpu_count() or 1


class ExecutorBackend(ABC):
    """Strategy for running a batch of independent site-local tasks."""

    name: str = "abstract"
    max_workers: int = 1

    @abstractmethod
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Run ``fn`` over ``items``; results come back in submission order.

        The first exception raised by any task propagates to the caller.
        Process-based backends additionally require ``fn`` and every item to
        be picklable (module-level function, plain-data items).
        """

    def map_site_tasks(
        self,
        tasks: Sequence[SiteTask],
        cluster,
        site_options: Optional[Mapping[str, object]] = None,
    ) -> List[SiteTaskResult]:
        """Run a batch of :class:`~repro.exec.tasks.SiteTask` descriptors.

        In-process backends resolve each task's site from the live
        ``cluster``; the process-pool backend overrides this to ship the
        descriptors to workers bootstrapped with the cluster's fragments
        (``site_options`` carries the worker-side knobs, e.g. planner
        settings).  Results come back in submission order either way.

        Tasks run through :func:`~repro.exec.tasks.run_site_task`, so every
        backend shares the fault layer's retry/failure semantics; fault-free
        tasks behave exactly as before.
        """
        del site_options  # only process workers need bootstrap options
        tasks = list(tasks)
        site_of = {site.site_id: site for site in cluster}
        return self.map(lambda task: run_site_task(task, site_of[task.site_id]), tasks)

    def close(self) -> None:
        """Release any worker resources; the backend stays usable afterwards
        (a later :meth:`map` lazily re-acquires them)."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} max_workers={self.max_workers}>"


class SerialBackend(ExecutorBackend):
    """The reference backend: run every task inline, one after another."""

    name = SERIAL
    max_workers = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


class ThreadPoolBackend(ExecutorBackend):
    """Run site-local tasks on a ``concurrent.futures`` thread pool.

    The pool is created lazily on first use and persists across calls (one
    engine runs many stages); ``close()`` tears it down.  Single-item batches
    skip the pool entirely — there is nothing to overlap.
    """

    name = THREADS

    def __init__(self, max_workers: Optional[int] = None) -> None:
        workers = default_max_workers() if max_workers is None else max_workers
        if workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {workers}")
        self.max_workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None
        # Lazy creation is lock-guarded: concurrent queries sharing one
        # session share one backend, and a check-then-create race would leak
        # a second pool.
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-site"
                )
            return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        # Executor.map yields results in submission order (not completion
        # order), which is exactly the determinism contract.
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class ProcessPoolBackend(ExecutorBackend):
    """Run site-local tasks on a ``concurrent.futures`` process pool.

    This is the backend that delivers true multi-core speedup on a stock
    (GIL) CPython build: each worker process bootstraps its own copy of every
    site exactly once — the pool initializer rebuilds them from picklable
    fragment payloads (:class:`~repro.exec.worker.WorkerBootstrap`) — and
    then executes :class:`~repro.exec.tasks.SiteTask` descriptors, so
    per-task traffic is limited to the explicit stage payloads and results.

    The pool is created lazily on the first multi-task batch and is *bound*
    to the cluster whose fragments it bootstrapped; mapping tasks for a
    different cluster (or different site options) transparently rebuilds the
    pool.  Single-item batches run inline in the coordinator, mirroring
    :class:`ThreadPoolBackend` — there is nothing to overlap.
    """

    name = PROCESSES

    def __init__(self, max_workers: Optional[int] = None) -> None:
        workers = default_max_workers() if max_workers is None else max_workers
        if workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {workers}")
        self.max_workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Weak reference to the cluster the current pool was bootstrapped
        #: for, plus the options it was bootstrapped with.  Weak, so a dead
        #: cluster can never alias a new one at the same address.
        self._bound_cluster: Optional["weakref.ref"] = None
        self._bound_options: Optional[Tuple[Tuple[str, object], ...]] = None
        #: The cluster's mutation epoch at bind time: a delta application
        #: invalidates every worker's bootstrapped sites, so the pool rebinds.
        self._bound_epoch: Optional[int] = None
        # Guards pool creation/bind/close as one unit: concurrent queries on
        # one session must agree on a single bootstrapped pool.  Re-entrant
        # because _bind_cluster calls close().
        self._pool_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    @staticmethod
    def _main_is_reimportable() -> bool:
        """Whether spawn-style start methods can rebuild ``__main__``.

        ``spawn``/``forkserver`` workers re-import the parent's main module;
        an interactive session, a ``python -`` heredoc or a REPL has no
        importable main, so those methods would crash the pool.
        """
        import os
        import sys

        main = sys.modules.get("__main__")
        if main is None:
            return False
        if getattr(getattr(main, "__spec__", None), "name", None):
            return True
        path = getattr(main, "__file__", None)
        return bool(path) and os.path.exists(path)

    @classmethod
    def _mp_context(cls):
        """The start method for worker processes, chosen per pool creation.

        ``fork`` while the coordinator is single-threaded: cheapest, and the
        only method that works for interactive/stdin-driven parents (the
        spawn-style methods must re-import ``__main__``, which a REPL cannot
        provide).  With live coordinator threads — e.g. a thread-pool
        backend running next to this one — fork could inherit a lock held
        mid-operation (CPython 3.12+ warns about exactly this), so prefer
        ``forkserver`` then: everything shipped to workers is spawn-safe by
        design (module-level handlers, plain-data bootstrap).  A threaded
        *and* non-reimportable coordinator keeps fork — a certain crash is
        worse than a theoretical lock inheritance.
        """
        methods = multiprocessing.get_all_start_methods()
        fork_available = "fork" in methods
        if fork_available and (
            threading.active_count() == 1 or not cls._main_is_reimportable()
        ):
            return multiprocessing.get_context("fork")
        if "forkserver" in methods:
            context = multiprocessing.get_context("forkserver")
            # Preload the worker module (and with it the whole repro stack)
            # into the fork server once, so each worker forks pre-imported
            # instead of re-importing per pool.  A no-op after the server
            # has started.
            context.set_forkserver_preload(["repro.exec.worker"])
            return context
        return multiprocessing.get_context()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """A pool without site bootstrap, for plain :meth:`map` batches."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers, mp_context=self._mp_context()
                )
            return self._pool

    def _bind_cluster(self, cluster, site_options: Optional[Mapping[str, object]]) -> None:
        """Make sure the pool's workers are bootstrapped for ``cluster``.

        ``site_options`` are normalized over the bootstrap defaults before
        comparing, so a caller passing no options (``Cluster.graph_statistics``)
        and a caller passing the default options (an engine with a default
        config) share one warm pool instead of rebinding back and forth.
        """
        from .worker import WorkerBootstrap, initialize_worker, default_site_options

        options = tuple(sorted({**default_site_options(), **(site_options or {})}.items()))
        epoch = getattr(cluster, "mutation_epoch", 0)
        with self._pool_lock:
            bound = self._bound_cluster() if self._bound_cluster is not None else None
            if (
                self._pool is not None
                and bound is cluster
                and self._bound_options == options
                and self._bound_epoch == epoch
            ):
                return
            self.close()
            bootstrap = WorkerBootstrap.from_cluster(cluster, **dict(options))
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=self._mp_context(),
                initializer=initialize_worker,
                initargs=(bootstrap,),
            )
            self._bound_cluster = weakref.ref(cluster)
            self._bound_options = options
            self._bound_epoch = epoch

    # ------------------------------------------------------------------
    # ExecutorBackend API
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def map_site_tasks(
        self,
        tasks: Sequence[SiteTask],
        cluster,
        site_options: Optional[Mapping[str, object]] = None,
    ) -> List[SiteTaskResult]:
        tasks = list(tasks)
        if len(tasks) <= 1 or all(task.stage in PAYLOAD_BOUND_STAGES for task in tasks):
            # Run inline against the coordinator's live sites — same handler,
            # same fragment, no pickling.  Single-item batches have nothing
            # to overlap; payload-bound stages (pure regrouping of large,
            # already-materialized data) cost more to ship than to run.
            site_of = {site.site_id: site for site in cluster}
            return [run_site_task(task, site_of[task.site_id]) for task in tasks]
        self._bind_cluster(cluster, site_options)
        with self._pool_lock:
            pool = self._pool
        assert pool is not None
        return list(pool.map(run_site_task, tasks))

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._bound_cluster = None
            self._bound_options = None
            self._bound_epoch = None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        # Engines own their backends and close() them, but test code that
        # drops an engine on the floor must not leak worker processes.
        try:
            self.close()
        except Exception:
            pass


class OptionError(ValueError):
    """A rejected keyword option of :func:`make_backend` or a session.

    ``options`` maps each offending keyword to the value it was given, so a
    front end that spells the option differently (the CLI's ``--workers``)
    can name it the way its user typed it.
    """

    def __init__(self, message: str, **options: object) -> None:
        super().__init__(message)
        self.options = options


def make_backend(
    executor: Optional[str] = None, workers: Optional[int] = None
) -> ExecutorBackend:
    """The one resolver and validator of the per-site fan-out backend.

    * ``(None, None)`` resolves from ``$REPRO_EXECUTOR`` and falls back to
      ``"serial"``, the reproducible default;
    * ``(None, N)`` is a thread pool of N, whatever ``$REPRO_EXECUTOR`` says;
    * ``("threads" | "processes", N)`` is that pool, sized N or, for
      ``N=None``, from ``$REPRO_MAX_WORKERS`` then the CPU count;
    * ``("serial", N)``, an unknown name and ``N < 1`` raise
      :class:`OptionError`.
    """
    if workers is not None and workers < 1:
        raise OptionError(f"workers must be >= 1, got {workers}", workers=workers)
    if executor is None and workers is not None:
        return ThreadPoolBackend(workers)
    chosen = executor if executor is not None else os.environ.get(EXECUTOR_ENV_VAR, SERIAL)
    chosen = chosen.strip().lower() or SERIAL
    if chosen == SERIAL:
        if workers is not None:
            raise OptionError(
                f"workers={workers} needs a worker pool and executor 'serial' has none; "
                f"drop workers or choose executor from: {THREADS}, {PROCESSES}",
                executor=executor,
                workers=workers,
            )
        return SerialBackend()
    if chosen == THREADS:
        return ThreadPoolBackend(workers)
    if chosen == PROCESSES:
        return ProcessPoolBackend(workers)
    raise OptionError(
        f"unknown executor {chosen!r}; expected one of {', '.join(EXECUTOR_CHOICES)}",
        executor=executor,
    )


def run_per_site(
    cluster: Iterable, fn: Callable, backend: Optional[ExecutorBackend] = None
) -> List[Tuple[object, object]]:
    """Fan ``fn`` out over the cluster's sites and merge in ``site_id`` order.

    Returns ``[(site, fn(site)), ...]`` sorted by ``site_id`` no matter how
    the backend schedules the work, so callers can fold results into shared
    state deterministically.

    ``fn`` may be any callable (closures included), which is why this helper
    only suits *in-process* backends; work that must be able to run on the
    process pool is expressed as :class:`~repro.exec.tasks.SiteTask`
    descriptors and dispatched through
    :meth:`ExecutorBackend.map_site_tasks` instead.
    """
    sites = sorted(cluster, key=lambda site: site.site_id)
    results = (backend or SerialBackend()).map(fn, sites)
    return list(zip(sites, results))
