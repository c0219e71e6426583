"""The per-site fan-out: one in-process backend scheduling the engine's site work.

The paper's pipeline is embarrassingly parallel between stages' barriers:
candidate compression, partial evaluation and LEC feature extraction all run
*independently at each site* before the coordinator acts.  This repository
simulates every site in one interpreter, so the fan-out runs the per-site
bodies one after another in the coordinator's process.  (Thread and process
pools were measured slower than this loop on every benchmark workload and
were removed.)

Determinism contract
--------------------

:meth:`SerialBackend.map` returns results in *submission order* and
:meth:`SerialBackend.map_site_tasks` pairs tasks with results the same way;
the engines build their task batches in ascending ``site_id`` order and keep
all shared-state mutation (message-bus accounting, statistics accumulation)
in the serial merge that consumes these ordered results.  See
``docs/execution.md``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from .tasks import SiteTask, SiteTaskResult, run_site_task

T = TypeVar("T")
R = TypeVar("R")

#: The one backend name :func:`make_backend` accepts.
SERIAL = "serial"


class SerialBackend:
    """Run every site task inline, one after another, in submission order."""

    name = SERIAL

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Run ``fn`` over ``items``; results come back in submission order.

        The first exception raised by any call propagates to the caller.
        """
        return [fn(item) for item in items]

    def map_site_tasks(self, tasks: Sequence[SiteTask], cluster) -> List[SiteTaskResult]:
        """Run a batch of :class:`~repro.exec.tasks.SiteTask` descriptors.

        Each task's site is resolved from the live ``cluster`` and the task
        runs through :func:`~repro.exec.tasks.run_site_task`, so every
        fan-out shares the fault layer's retry/failure semantics; fault-free
        tasks run the handler exactly once.
        """
        site_of = {site.site_id: site for site in cluster}
        return [run_site_task(task, site_of[task.site_id]) for task in tasks]

    def close(self) -> None:
        """Nothing to release; kept so owners can close what they hold."""


class OptionError(ValueError):
    """A rejected keyword option of :func:`make_backend` or a session.

    ``options`` maps each offending keyword to the value it was given, so a
    front end that spells the option differently (a CLI flag) can name it
    the way its user typed it.
    """

    def __init__(self, message: str, **options: object) -> None:
        super().__init__(message)
        self.options = options


def make_backend(executor: Optional[str] = None) -> SerialBackend:
    """The one resolver and validator of the per-site fan-out backend.

    ``None`` and ``"serial"`` are the serial fan-out; any other name raises
    :class:`OptionError` naming ``executor``.
    """
    if executor is not None and executor != SERIAL:
        raise OptionError(
            f"unknown executor {executor!r}; the only executor is {SERIAL!r}",
            executor=executor,
        )
    return SerialBackend()
