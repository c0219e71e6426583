"""Site-task descriptors: the unit of per-site work.

A :class:`SiteTask` names the target site, carries the module-level stage
handler that does the work and an explicit payload, instead of a closure
over the engine, the cluster and the message bus.  :func:`run_site_task`
calls the handler with ``(site, payload)`` under the site's lock and times it
on the coordinator's ``perf_counter`` clock, so the engine's serial merge can
feed the per-site stage timers and trace spans without the tasks ever
touching shared state.  A handler that raises ends the query with one
:class:`SiteTaskError` naming the site and the task.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Sequence

#: A stage handler: ``handler(site, payload) -> value``.
Handler = Callable[[Any, Mapping[str, Any]], Any]


class SiteTaskError(RuntimeError):
    """A site task raised: the one failure shape of the per-site fan-out.

    ``site_id`` is the site the task ran on and ``stage`` its task label
    (e.g. ``engine.partial_eval``, the label :attr:`SiteTaskResult.stage`
    and the ``site:{id}`` spans show).  The handler's exception is the
    ``__cause__``.
    """

    def __init__(self, site_id: int, stage: str) -> None:
        super().__init__(site_id, stage)
        self.site_id = site_id
        self.stage = stage

    def __str__(self) -> str:
        cause = self.__cause__
        detail = f": {type(cause).__name__}: {cause}" if cause is not None else ""
        return f"site {self.site_id} failed in {self.stage}{detail}"


@dataclass(frozen=True)
class SiteTask:
    """One unit of per-site work: ``(site_id, stage, handler, payload)``.

    ``stage`` is the task's name: the label :attr:`SiteTaskResult.stage`
    and :class:`SiteTaskError` report.  ``handler`` is a module-level
    function, so a task pickles by reference.  ``payload`` is the *entire*
    input of the handler beyond the site itself; handlers must not reach for
    the cluster, the message bus or the engine — all shared-state mutation
    belongs to the coordinator's serial merge.
    """

    site_id: int
    stage: str
    handler: Handler
    payload: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SiteTaskResult:
    """A handler's return value plus the wall-clock seconds it took.

    ``elapsed_s`` is measured around the handler alone (not the wait for
    the site's lock), so the engine's stage timers report per-site compute
    times; ``started_s`` is the ``time.perf_counter()`` reading it started
    at, from which the engine places the task's trace span.
    """

    site_id: int
    stage: str
    elapsed_s: float
    value: Any
    started_s: float = 0.0


def run_site_task(task: SiteTask, site: Any) -> SiteTaskResult:
    """Run ``task`` against ``site`` and time the handler.

    Handler runs are serialized per site (:attr:`~repro.distributed.Site.lock`:
    handlers read work counters off the site's store after evaluating, so
    concurrent queries on one site would interleave them); the lock is taken
    *before* the timing starts, so waiting on a concurrent query never
    inflates this task's measured compute time.  Any exception the handler
    raises is re-raised as a :class:`SiteTaskError` chained from it.
    """
    with site.lock:
        started = time.perf_counter()
        try:
            value = task.handler(site, task.payload)
        except Exception as error:
            raise SiteTaskError(task.site_id, task.stage) from error
        elapsed = time.perf_counter() - started
    return SiteTaskResult(task.site_id, task.stage, elapsed, value, started)


def run_site_tasks(tasks: Sequence[SiteTask], cluster: Any) -> List[SiteTaskResult]:
    """Run a batch of tasks against the live ``cluster``'s sites, in submission order."""
    site_of = {site.site_id: site for site in cluster}
    return [run_site_task(task, site_of[task.site_id]) for task in tasks]
