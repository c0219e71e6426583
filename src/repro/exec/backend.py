"""The session's per-site fan-out handle: a thin surface over :func:`run_site_tasks`.

The engines run their site tasks through :func:`~repro.exec.tasks.run_site_tasks`
directly; :class:`SerialBackend` is what :func:`make_backend` resolves the
``executor`` option to and what ``Session.backend`` exposes for callers that
fan site tasks (or plain per-site bodies) out themselves.  Both methods
return results in *submission order*.  See ``docs/execution.md``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from .tasks import SiteTask, SiteTaskResult, run_site_tasks

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
        """Run a batch of :class:`~repro.exec.tasks.SiteTask` descriptors
        against the live ``cluster``'s sites (:func:`~repro.exec.tasks.run_site_tasks`)."""
        return run_site_tasks(tasks, cluster)

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
