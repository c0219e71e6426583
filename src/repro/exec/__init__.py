"""Execution runtime: the engine's per-site fan-out.

:class:`SerialBackend` runs :class:`SiteTask` descriptors one site after
another in the coordinator's process; results merge in ``site_id`` order and
all shared-state mutation stays in the coordinator's serial merge.  See
``docs/execution.md`` for the contract.
"""

from .backend import SERIAL, OptionError, SerialBackend, make_backend
from .tasks import (
    SiteTask,
    SiteTaskResult,
    execute_site_task,
    register_site_task,
    registered_site_tasks,
    run_site_task,
)

__all__ = [
    "SERIAL",
    "OptionError",
    "SerialBackend",
    "SiteTask",
    "SiteTaskResult",
    "execute_site_task",
    "make_backend",
    "register_site_task",
    "registered_site_tasks",
    "run_site_task",
]
