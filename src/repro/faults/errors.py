"""Error taxonomy of the fault-injection layer.

The paper's evaluation model assumes every site answers every per-site
stage; this module names the two ways the chaos layer breaks that
assumption, because the recovery machinery treats them differently:

* :class:`TransientTaskError` — a blip (lost packet, brief overload).  The
  site-task runner retries the task in place with capped backoff
  (:class:`~repro.faults.RetryPolicy`); the coordinator never notices unless
  the retries run out.
* :class:`SiteDownError` — the site died.  Retrying in place is pointless,
  so the task fails fast and the *coordinator* recovers: it rebuilds the
  site from its fragment and re-executes the stage body, or — when
  the fault plan marks the site unrecoverable — degrades to partial results
  that name the lost site.

Real handler bugs raise neither and propagate unchanged: only the injection
layer (:class:`~repro.faults.FaultPlan`) raises these two, so a clean run's
error behavior is untouched.

:class:`TaskFailure` is the record of a failure that a
:class:`~repro.exec.tasks.SiteTaskResult` carries back instead of raising —
the coordinator's serial merge turns it into recovery or degradation.
"""

from __future__ import annotations

from dataclasses import dataclass


class TransientTaskError(RuntimeError):
    """An injected, retryable blip in one site-task attempt."""

    def __init__(self, site_id: int, stage: str, attempt: int) -> None:
        super().__init__(
            f"injected transient failure at site {site_id} during {stage!r} "
            f"(attempt {attempt})"
        )
        self.site_id = site_id
        self.stage = stage
        self.attempt = attempt


class SiteDownError(RuntimeError):
    """An injected site death; never retried in place.

    ``recoverable`` mirrors the fault-plan entry: a recoverable death is
    healed by the coordinator rebuilding the site from its fragment payload,
    an unrecoverable one degrades the query to partial results.
    """

    def __init__(self, site_id: int, stage: str, recoverable: bool = True) -> None:
        kind = "recoverable" if recoverable else "unrecoverable"
        super().__init__(f"injected {kind} site death at site {site_id} during {stage!r}")
        self.site_id = site_id
        self.stage = stage
        self.recoverable = recoverable


#: Failure kinds recorded on a :class:`TaskFailure`.
FAILURE_SITE_DOWN = "site_down"
FAILURE_TRANSIENT_EXHAUSTED = "transient_exhausted"


@dataclass(frozen=True)
class TaskFailure:
    """Why a site task produced no value (plain data, pickles cleanly).

    ``recoverable`` tells the coordinator's merge whether rebuilding the
    site and re-executing the stage can still produce the missing value.
    """

    kind: str
    message: str
    recoverable: bool = True
