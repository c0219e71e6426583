"""Site-task descriptors: the unit of per-site work.

A :class:`SiteTask` names the target site, carries the module-level stage
handler that does the work and an explicit payload, instead of a closure
over the engine, the cluster and the message bus.  :func:`run_site_task`
calls the handler with ``(site, payload)`` under the site's lock and times it
on the coordinator's ``perf_counter`` clock, so the engine's serial merge can
feed the per-site stage timers and trace spans without the tasks ever
touching shared state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Mapping, Optional, Sequence

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

#: A stage handler: ``handler(site, payload) -> value``.
Handler = Callable[[Any, Mapping[str, Any]], Any]


@dataclass(frozen=True)
class SiteTask:
    """One unit of per-site work: ``(site_id, stage, handler, payload)``.

    ``stage`` is the task's name: the label the fault plan matches and
    :attr:`SiteTaskResult.stage` reports.  ``handler`` is a module-level
    function, so a task pickles by reference.  ``payload`` is the *entire*
    input of the handler beyond the site itself; handlers must not reach for
    the cluster, the message bus or the engine — all shared-state mutation
    belongs to the coordinator's serial merge.

    ``attempt`` is the 1-based attempt number the retry loop stamps and
    ``recovery`` marks a coordinator-driven re-run against a rebuilt site;
    the fault plan (:mod:`repro.faults`) reads both.
    """

    site_id: int
    stage: str
    handler: Handler
    payload: Mapping[str, Any] = field(default_factory=dict)
    attempt: int = 1
    recovery: bool = False


@dataclass(frozen=True)
class SiteTaskResult:
    """A handler's return value plus the wall-clock seconds it took.

    ``elapsed_s`` is measured around the handler alone (not the wait for
    the site's lock), so the engine's stage timers report per-site compute
    times; ``started_s`` is the ``time.perf_counter()`` reading it started
    at, from which the engine places the task's trace span.

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
    started_s: float = 0.0
    attempts: int = 1
    failure: Optional[TaskFailure] = None


def run_site_task(
    task: SiteTask,
    site: Any,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
) -> SiteTaskResult:
    """Run ``task`` against ``site`` with the retry/failure semantics of the fault layer.

    Handler runs are serialized per site (:attr:`~repro.distributed.Site.lock`:
    handlers read work counters off the site's store after evaluating, so
    concurrent queries on one site would interleave them); the lock is taken
    *before* the timing starts, so waiting on a concurrent query never
    inflates this task's measured compute time.  The contract:

    * ``faults`` is consulted inside the timing window, so injected straggler
      latency (``slow`` entries) shows up in the attempt's measured time.
    * :class:`~repro.faults.TransientTaskError` is retried in place up to the
      ``retry`` budget (default :data:`~repro.faults.DEFAULT_RETRY_POLICY`)
      with capped exponential backoff; only the successful attempt's time is
      reported and ``attempts`` records how many tries it took.
    * :class:`~repro.faults.SiteDownError` — and an exhausted retry budget —
      produce a *failed* result (``value=None``, ``failure`` set) instead of
      raising, so one dead site cannot poison a whole fan-out batch.
    * Any other exception is a real bug in a handler and propagates
      unchanged.
    """
    policy = retry if retry is not None else DEFAULT_RETRY_POLICY
    attempts = 0
    while True:
        attempts += 1
        current = task if attempts == task.attempt else replace(task, attempt=attempts)
        try:
            with site.lock:
                started = time.perf_counter()
                if faults is not None:
                    faults.before_task(current)
                value = task.handler(site, task.payload)
                elapsed = time.perf_counter() - started
        except SiteDownError as error:
            failure = TaskFailure(FAILURE_SITE_DOWN, str(error), recoverable=error.recoverable)
        except TransientTaskError as error:
            if attempts < policy.max_attempts:
                backoff = policy.backoff_for(attempts)
                if backoff > 0:
                    time.sleep(backoff)
                continue
            failure = TaskFailure(FAILURE_TRANSIENT_EXHAUSTED, str(error), recoverable=True)
        else:
            return SiteTaskResult(task.site_id, task.stage, elapsed, value, started, attempts)
        return SiteTaskResult(
            task.site_id, task.stage, 0.0, None, attempts=attempts, failure=failure
        )


def run_site_tasks(
    tasks: Sequence[SiteTask],
    cluster: Any,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
) -> List[SiteTaskResult]:
    """Run a batch of tasks against the live ``cluster``'s sites, in submission order."""
    site_of = {site.site_id: site for site in cluster}
    return [run_site_task(task, site_of[task.site_id], faults, retry) for task in tasks]
