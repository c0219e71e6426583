"""Deterministic fault injection and recovery (``repro.faults``).

The paper's evaluation model assumes every site answers every per-site
stage.  This package breaks that assumption on purpose — and deterministically:
a :class:`FaultPlan` schedules site deaths, transient task failures, and
straggler latency by ``(site, stage, attempt)``, the execution runtime
(:mod:`repro.exec`) retries transients with a capped-backoff
:class:`RetryPolicy`, and the engine's serial merge recovers dead sites by
rebuilding them from their fragments or degrades to partial results
(``Result.degraded``) when the plan marks a site unrecoverable.

Because every fault decision is a pure function of the plan and the task
identity, the same plan produces bit-identical answers, retry counts, and
shipment fingerprints on every run — the property the chaos suite in
``tests/faults`` pins.

See ``docs/faults.md`` for the plan format and the determinism contract.
"""

from .errors import (
    FAILURE_SITE_DOWN,
    FAILURE_TRANSIENT_EXHAUSTED,
    SiteDownError,
    TaskFailure,
    TransientTaskError,
)
from .plan import (
    FLAKY,
    INJECTABLE_STAGES,
    KILL,
    SLOW,
    STAGE_ASSEMBLY,
    STAGE_CANDIDATES,
    STAGE_LEC_FILTER,
    STAGE_PARTIAL_EVAL,
    STAGE_PRUNING,
    TASK_STAGES,
    TASKS_BY_STAGE,
    FaultEntry,
    FaultPlan,
    ShipmentFaultInjector,
)
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "FAILURE_SITE_DOWN",
    "FAILURE_TRANSIENT_EXHAUSTED",
    "FLAKY",
    "FaultEntry",
    "FaultPlan",
    "INJECTABLE_STAGES",
    "KILL",
    "RetryPolicy",
    "SLOW",
    "STAGE_ASSEMBLY",
    "STAGE_CANDIDATES",
    "STAGE_LEC_FILTER",
    "STAGE_PARTIAL_EVAL",
    "STAGE_PRUNING",
    "ShipmentFaultInjector",
    "SiteDownError",
    "TASKS_BY_STAGE",
    "TASK_STAGES",
    "TaskFailure",
    "TransientTaskError",
]
