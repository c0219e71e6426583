"""Execution runtime: the engine's per-site fan-out.

A :class:`SiteTask` carries its site, its module-level handler and its
payload; :func:`run_site_task` calls the handler in the coordinator's
process, one site after another; results merge in ``site_id`` order and all
shared-state mutation stays in the coordinator's serial merge.  A handler
that raises ends the query with one :class:`SiteTaskError`.  See
``docs/execution.md`` for the contract.
"""

from .backend import SERIAL, OptionError, SerialBackend, make_backend
from .tasks import SiteTask, SiteTaskError, SiteTaskResult, run_site_task, run_site_tasks

__all__ = [
    "SERIAL",
    "OptionError",
    "SerialBackend",
    "SiteTask",
    "SiteTaskError",
    "SiteTaskResult",
    "make_backend",
    "run_site_task",
    "run_site_tasks",
]
