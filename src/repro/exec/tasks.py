"""Site-task descriptors: the unit of per-site work.

A :class:`SiteTask` names the target site, a registered stage handler and an
explicit payload, instead of a closure over the engine, the cluster and the
message bus.  Handlers are plain module-level functions registered under a
string key.  The backend resolves the task's site from the live
:class:`~repro.distributed.Cluster` and calls the handler with
``(site, payload)``; :func:`execute_site_task` wraps it with the measured
wall-clock time so the engine's serial merge can feed the per-site stage
timers without the tasks ever touching shared state.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional

from ..faults import (
    FAILURE_SITE_DOWN,
    FAILURE_TRANSIENT_EXHAUSTED,
    DEFAULT_RETRY_POLICY,
    FaultPlan,
    RetryPolicy,
    SiteDownError,
    TaskFailure,
    TransientTaskError,
)
from ..obs.trace import SpanContext, TaskSpan

#: Registered stage handlers, keyed by task name.  Handlers are registered at
#: import time by the modules that define them (:mod:`repro.core.site_tasks`,
#: :mod:`repro.distributed.site`).
_HANDLERS: Dict[str, Callable[[Any, Mapping[str, Any]], Any]] = {}


@dataclass(frozen=True)
class SiteTask:
    """One unit of per-site work: ``(site_id, stage, payload)``.

    ``payload`` is the *entire* input of the handler beyond the site itself.
    Handlers must not reach for the cluster, the message bus or the engine;
    all shared-state mutation belongs to the coordinator's serial merge.

    ``trace`` (optional) is the :class:`~repro.obs.SpanContext` of the
    coordinator's open stage span; when set, :func:`execute_site_task`
    measures a :class:`~repro.obs.TaskSpan` for the handler so the trace can
    reassemble per-site spans after the fan-out, without the backend knowing
    about tracing.

    ``attempt``/``recovery``/``faults``/``retry`` belong to the fault-injection
    layer (:mod:`repro.faults`): ``faults`` is the plan consulted before the
    handler runs, ``retry`` the transient-failure budget
    :func:`run_site_task` applies, ``attempt`` the 1-based attempt number the
    retry loop stamps, and ``recovery`` marks a coordinator-driven re-run
    against a rebuilt site.  All four default to the fault-free
    configuration, so clean runs carry no extra state.
    """

    site_id: int
    stage: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    trace: Optional[SpanContext] = None
    attempt: int = 1
    recovery: bool = False
    faults: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None


@dataclass(frozen=True)
class SiteTaskResult:
    """A handler's return value plus the wall-clock seconds it took.

    ``elapsed_s`` is measured around the handler alone (not the wait for
    the site's lock), so the engine's stage timers report per-site compute
    times.

    ``span`` is populated only when the task carried a trace context: the raw
    :class:`~repro.obs.TaskSpan` measured where the handler ran, for the
    coordinator's merge to fold into the query trace.

    ``attempts`` counts every attempt :func:`run_site_task` consumed; on
    success ``elapsed_s`` covers the *successful attempt only*, so a retried
    task never double-counts failed attempts into the engine's stage timers.
    ``failure`` is set — with ``value=None`` and ``elapsed_s=0.0`` — when the
    task's site died or its retries ran out; the coordinator's serial merge
    decides between recovery and degradation.
    """

    site_id: int
    stage: str
    elapsed_s: float
    value: Any
    span: Optional[TaskSpan] = None
    attempts: int = 1
    failure: Optional[TaskFailure] = None


def register_site_task(stage: str) -> Callable[[Callable], Callable]:
    """Decorator registering the decorated function as the handler for ``stage``.

    Registration is idempotent per name but refuses to silently replace a
    different function — two modules claiming the same stage name is a bug.
    """

    def decorator(fn: Callable[[Any, Mapping[str, Any]], Any]) -> Callable:
        existing = _HANDLERS.get(stage)
        if existing is not None and existing is not fn:
            raise ValueError(f"site task {stage!r} is already registered to {existing!r}")
        _HANDLERS[stage] = fn
        return fn

    return decorator


def registered_site_tasks() -> Dict[str, Callable]:
    """A snapshot of the registered handlers (importing the built-ins first)."""
    _import_builtin_handlers()
    return dict(_HANDLERS)


def _import_builtin_handlers() -> None:
    """Import every module that registers built-in handlers.

    Deferred to call time: :mod:`repro.core.site_tasks` and
    :mod:`repro.distributed.site` both import :mod:`repro.exec`, so importing
    them from the top of this module would be circular.
    """
    from ..core import site_tasks  # noqa: F401  (registers the engine's stage tasks)
    from ..distributed import site  # noqa: F401  (registers graph_statistics)


def _resolve_handler(stage: str) -> Callable[[Any, Mapping[str, Any]], Any]:
    if stage not in _HANDLERS:
        _import_builtin_handlers()
    try:
        return _HANDLERS[stage]
    except KeyError:
        known = ", ".join(sorted(_HANDLERS)) or "none"
        raise LookupError(f"no site task registered as {stage!r} (known: {known})") from None


#: Per-site execution locks: stage handlers read work counters off the
#: site's store *after* evaluating (``site.store.matcher.search_steps``), so
#: two concurrent queries hammering the same site would interleave those
#: counters.  Within one query the per-site fan-out targets distinct sites —
#: distinct locks; across queries it makes each site's handler runs atomic.  Keyed weakly so
#: a dropped cluster's sites don't pin their locks.
_SITE_LOCKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_SITE_LOCKS_GUARD = threading.Lock()


def _site_lock(site: Any) -> threading.RLock:
    with _SITE_LOCKS_GUARD:
        lock = _SITE_LOCKS.get(site)
        if lock is None:
            lock = _SITE_LOCKS[site] = threading.RLock()
        return lock


def execute_site_task(task: SiteTask, site: Any) -> SiteTaskResult:
    """Run ``task`` against ``site`` and return its timed result.

    Handler runs are serialized per site (see :data:`_SITE_LOCKS`); the lock
    is taken *before* the timing starts, so waiting on a concurrent query
    never inflates this task's measured compute time.
    """
    handler = _resolve_handler(task.stage)
    with _site_lock(site):
        started = time.perf_counter()
        if task.faults is not None:
            # Inside the timing window on purpose: injected straggler latency
            # (``slow`` entries) must show up in the attempt's measured time.
            task.faults.before_task(task)
        value = handler(site, task.payload)
        ended = time.perf_counter()
    span = None
    if task.trace is not None:
        span = TaskSpan(
            site_id=task.site_id,
            stage=task.stage,
            start_s=started,
            end_s=ended,
            pid=os.getpid(),
            context=task.trace,
        )
    return SiteTaskResult(task.site_id, task.stage, ended - started, value, span)


def run_site_task(task: SiteTask, site: Any) -> SiteTaskResult:
    """Run ``task`` with the retry/failure semantics of the fault layer.

    This is what the backend maps over site tasks.  The contract:

    * :class:`~repro.faults.TransientTaskError` is retried in place up to the
      task's :class:`~repro.faults.RetryPolicy` budget with capped
      exponential backoff; on success only the successful attempt's
      ``elapsed_s`` is reported (failed attempts never reach the stage
      timers) and ``attempts`` records how many tries it took.
    * :class:`~repro.faults.SiteDownError` — and an exhausted retry budget —
      produce a *failed* result (``value=None``, ``failure`` set) instead of
      raising, so one dead site cannot poison a whole fan-out batch; the
      coordinator's serial merge turns the failure into recovery or
      degradation.
    * Any other exception is a real bug in a handler and propagates
      unchanged.

    Fault-free tasks take the first branch on attempt 1 and behave exactly
    like :func:`execute_site_task`.
    """
    policy = task.retry if task.retry is not None else DEFAULT_RETRY_POLICY
    attempts = 0
    while True:
        attempts += 1
        current = task if attempts == task.attempt else replace(task, attempt=attempts)
        try:
            result = execute_site_task(current, site)
        except SiteDownError as error:
            failure = TaskFailure(FAILURE_SITE_DOWN, str(error), recoverable=error.recoverable)
            return SiteTaskResult(
                task.site_id, task.stage, 0.0, None, attempts=attempts, failure=failure
            )
        except TransientTaskError as error:
            if attempts >= policy.max_attempts:
                failure = TaskFailure(FAILURE_TRANSIENT_EXHAUSTED, str(error), recoverable=True)
                return SiteTaskResult(
                    task.site_id, task.stage, 0.0, None, attempts=attempts, failure=failure
                )
            backoff = policy.backoff_for(attempts)
            if backoff > 0:
                time.sleep(backoff)
            continue
        if attempts == 1:
            return result
        return replace(result, attempts=attempts)
