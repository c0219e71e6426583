"""Deterministic retry policy for transient site-task failures.

Backoff is exponential with a cap and — deliberately — no jitter: the
chaos suite pins bit-identical behavior for the same seed, and
randomized sleeps would make retry
timing (and test wall-clock) nondeterministic without adding coverage.
The defaults are tuned for an in-process simulation where a "retry" costs
microseconds, not for a real network.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How many times a site task is attempted and how long to wait between.

    ``max_attempts`` counts the first try: the default of 3 means one
    initial attempt plus up to two retries before the task is reported as
    failed (:data:`~repro.faults.FAILURE_TRANSIENT_EXHAUSTED`).
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.001
    max_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff durations must be non-negative")

    def backoff_for(self, failed_attempts: int) -> float:
        """Seconds to sleep after ``failed_attempts`` consecutive failures.

        Doubles per failure (``base * 2 ** (failed_attempts - 1)``) and
        saturates at ``max_backoff_s``.
        """
        if failed_attempts < 1:
            return 0.0
        return min(self.base_backoff_s * (2 ** (failed_attempts - 1)), self.max_backoff_s)


#: Policy used when a fault plan does not override it.
DEFAULT_RETRY_POLICY = RetryPolicy()
