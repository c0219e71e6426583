"""Execution runtime: pluggable backends for the engine's per-site fan-out.

Three backends share one determinism contract (results merge in ``site_id``
order; all shared-state mutation stays in the coordinator's serial merge):

* :class:`SerialBackend` — the reference behavior, one site after another;
* :class:`ThreadPoolBackend` — overlapping threads (I/O and free-threaded
  builds benefit; the GIL serializes pure-Python work);
* :class:`ProcessPoolBackend` — worker processes that each bootstrap the
  cluster's sites once and execute picklable :class:`SiteTask` descriptors,
  for true multi-core speedup on stock CPython.

See ``docs/execution.md`` for the contract, the picklability rules and when
each backend wins.
"""

from .backend import (
    EXECUTOR_CHOICES,
    EXECUTOR_ENV_VAR,
    MAX_WORKERS_ENV_VAR,
    PROCESSES,
    SERIAL,
    THREADS,
    ExecutorBackend,
    OptionError,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    default_max_workers,
    make_backend,
    run_per_site,
)
from .tasks import (
    SiteTask,
    SiteTaskResult,
    execute_site_task,
    register_site_task,
    registered_site_tasks,
    run_site_task,
)
from .worker import WorkerBootstrap, initialize_worker, worker_is_initialized

__all__ = [
    "EXECUTOR_CHOICES",
    "EXECUTOR_ENV_VAR",
    "MAX_WORKERS_ENV_VAR",
    "PROCESSES",
    "SERIAL",
    "THREADS",
    "ExecutorBackend",
    "OptionError",
    "ProcessPoolBackend",
    "SerialBackend",
    "SiteTask",
    "SiteTaskResult",
    "ThreadPoolBackend",
    "WorkerBootstrap",
    "default_max_workers",
    "execute_site_task",
    "initialize_worker",
    "make_backend",
    "register_site_task",
    "registered_site_tasks",
    "run_per_site",
    "run_site_task",
    "worker_is_initialized",
]
