"""Seeded, deterministic fault schedules (:class:`FaultPlan`).

A plan is a tuple of :class:`FaultEntry` values, each naming a site, a
pipeline stage, and a fault kind:

``kill``
    The site dies when it is asked to work on that stage.  Recoverable by
    default — the coordinator rebuilds the site from its fragment and
    re-executes the stage — or permanent with the ``unrecoverable``
    flag, in which case the query degrades to partial results.
``flaky``
    The first N attempts of the site's task raise
    :class:`~repro.faults.TransientTaskError`; the site-task runner retries in place
    with capped backoff and the coordinator never notices.
``slow``
    The first attempt of the site's task sleeps for a fixed delay before
    running — injectable straggler latency.

Plans are immutable (the engine hands one to the site-task runner) and
pure: whether an entry fires is a function of ``(entry, task.stage,
task.site_id, task.attempt, task.recovery)`` only, which is what makes the
same plan deterministic run after run.

The textual format accepted by :meth:`FaultPlan.parse` (and the CLI's
``repro query --inject-faults``)::

    kill:SITE@STAGE[:unrecoverable]
    flaky:SITE@STAGE[:FAILURES]
    slow:SITE@STAGE:SECONDS

with entries separated by ``;`` (or ``,``).  ``random:SEED`` is resolved by
the CLI into :meth:`FaultPlan.random` over the loaded cluster's site ids.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import SiteDownError, TransientTaskError
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy

KILL = "kill"
FLAKY = "flaky"
SLOW = "slow"

_KINDS = (KILL, FLAKY, SLOW)

#: Pipeline stages a fault entry may target.  ``assembly`` has no per-site
#: compute task — its kills are injected at the shipment layer by
#: :class:`ShipmentFaultInjector` — so only ``kill`` entries may name it.
STAGE_CANDIDATES = "candidate_exchange"
STAGE_PARTIAL_EVAL = "partial_evaluation"
STAGE_PRUNING = "lec_pruning"
STAGE_LEC_FILTER = "lec_filter"
STAGE_ASSEMBLY = "assembly"

#: Which site-task names each injectable stage fans out.  Literal copies of
#: the names in :mod:`repro.core.site_tasks` — importing them here would
#: close an import cycle (``core.site_tasks`` → ``exec.tasks`` → this
#: package), so a test pins this mapping against
#: ``repro.core.site_tasks.PIPELINE_STAGE_TASKS`` instead.
TASKS_BY_STAGE: Dict[str, Tuple[str, ...]] = {
    STAGE_CANDIDATES: ("engine.candidate_vectors",),
    STAGE_PARTIAL_EVAL: ("engine.local_eval", "engine.partial_eval"),
    STAGE_PRUNING: ("engine.lec_features",),
    STAGE_LEC_FILTER: ("engine.lec_filter",),
    STAGE_ASSEMBLY: (),
}

INJECTABLE_STAGES: Tuple[str, ...] = tuple(TASKS_BY_STAGE)

#: Stages with a per-site compute task (everything except assembly); the
#: only legal targets for ``flaky`` and ``slow`` entries.
TASK_STAGES: Tuple[str, ...] = tuple(
    stage for stage, tasks in TASKS_BY_STAGE.items() if tasks
)


@dataclass(frozen=True)
class FaultEntry:
    """One scheduled fault: ``kind`` happening to ``site_id`` at ``stage``."""

    kind: str
    site_id: int
    stage: str
    failures: int = 1
    delay_s: float = 0.0
    unrecoverable: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")
        if self.stage not in INJECTABLE_STAGES:
            raise ValueError(
                f"unknown stage {self.stage!r}; expected one of {INJECTABLE_STAGES}"
            )
        if self.site_id < 0:
            raise ValueError(f"site_id must be >= 0, got {self.site_id}")
        if self.kind != KILL and self.stage == STAGE_ASSEMBLY:
            raise ValueError(
                f"{self.kind!r} entries need a per-site compute stage; "
                f"{STAGE_ASSEMBLY!r} is a shipment-only stage (kill entries only)"
            )
        if self.kind == FLAKY and self.failures < 1:
            raise ValueError(f"flaky entries need failures >= 1, got {self.failures}")
        if self.kind == SLOW and self.delay_s <= 0:
            raise ValueError(f"slow entries need delay_s > 0, got {self.delay_s}")

    def spec(self) -> str:
        """The textual form :meth:`FaultPlan.parse` accepts."""
        base = f"{self.kind}:{self.site_id}@{self.stage}"
        if self.kind == KILL:
            return base + (":unrecoverable" if self.unrecoverable else "")
        if self.kind == FLAKY:
            return base if self.failures == 1 else f"{base}:{self.failures}"
        return f"{base}:{self.delay_s:g}"


def _parse_entry(text: str) -> FaultEntry:
    parts = text.split(":")
    if len(parts) < 2:
        raise ValueError(
            f"bad fault entry {text!r}: expected KIND:SITE@STAGE[:EXTRA]"
        )
    kind = parts[0].strip().lower()
    target, extra = parts[1].strip(), [part.strip() for part in parts[2:]]
    if "@" not in target:
        raise ValueError(f"bad fault entry {text!r}: target must be SITE@STAGE")
    site_text, stage = target.split("@", 1)
    try:
        site_id = int(site_text)
    except ValueError:
        raise ValueError(f"bad fault entry {text!r}: site must be an integer") from None
    if len(extra) > 1:
        raise ValueError(f"bad fault entry {text!r}: too many ':'-separated fields")
    option = extra[0] if extra else None
    if kind == KILL:
        if option not in (None, "unrecoverable"):
            raise ValueError(
                f"bad fault entry {text!r}: kill takes only the 'unrecoverable' flag"
            )
        return FaultEntry(KILL, site_id, stage, unrecoverable=option == "unrecoverable")
    if kind == FLAKY:
        failures = 1
        if option is not None:
            try:
                failures = int(option)
            except ValueError:
                raise ValueError(
                    f"bad fault entry {text!r}: flaky failure count must be an integer"
                ) from None
        return FaultEntry(FLAKY, site_id, stage, failures=failures)
    if kind == SLOW:
        if option is None:
            raise ValueError(f"bad fault entry {text!r}: slow needs a delay in seconds")
        try:
            delay_s = float(option)
        except ValueError:
            raise ValueError(
                f"bad fault entry {text!r}: slow delay must be a number of seconds"
            ) from None
        return FaultEntry(SLOW, site_id, stage, delay_s=delay_s)
    raise ValueError(f"unknown fault kind {kind!r}; expected one of {_KINDS}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of injected faults plus the retry policy.

    The retry policy rides on the plan so one object carries everything the
    engine and the fan-out need; pass a custom ``retry`` to tighten
    or widen the transient-failure budget.
    """

    entries: Tuple[FaultEntry, ...] = ()
    retry: RetryPolicy = DEFAULT_RETRY_POLICY

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def parse(cls, text: str, *, retry: Optional[RetryPolicy] = None) -> "FaultPlan":
        """Parse the ``kill:1@assembly;flaky:0@lec_pruning:2`` textual form."""
        pieces = [
            piece.strip()
            for piece in text.replace(",", ";").split(";")
            if piece.strip()
        ]
        if not pieces:
            raise ValueError("empty fault plan")
        entries = tuple(_parse_entry(piece) for piece in pieces)
        return cls(entries, retry=retry or DEFAULT_RETRY_POLICY)

    @classmethod
    def random(
        cls,
        seed: int,
        site_ids: Sequence[int],
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> "FaultPlan":
        """A seeded random plan over ``site_ids``; same seed, same plan.

        Random plans are always *survivable* — kills are recoverable and
        flaky failure counts stay within the default retry budget — so a
        ``random:SEED`` chaos run must still produce the fault-free answers.
        """
        if not site_ids:
            raise ValueError("random fault plans need at least one site id")
        rng = random.Random(seed)
        entries: List[FaultEntry] = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(_KINDS)
            site_id = rng.choice(list(site_ids))
            if kind == KILL:
                stage = rng.choice(list(INJECTABLE_STAGES))
                entries.append(FaultEntry(KILL, site_id, stage))
            elif kind == FLAKY:
                stage = rng.choice(list(TASK_STAGES))
                entries.append(FaultEntry(FLAKY, site_id, stage, failures=rng.randint(1, 2)))
            else:
                stage = rng.choice(list(TASK_STAGES))
                entries.append(
                    FaultEntry(SLOW, site_id, stage, delay_s=rng.choice((0.001, 0.002, 0.005)))
                )
        return cls(tuple(entries), retry=retry or DEFAULT_RETRY_POLICY)

    def describe(self) -> str:
        """The plan in its parseable textual form."""
        return "; ".join(entry.spec() for entry in self.entries)

    def spec(self) -> str:
        """Alias of :meth:`describe` mirroring :meth:`FaultEntry.spec`."""
        return self.describe()

    # -- firing rules -----------------------------------------------------

    def _entries_for(self, task_name: str, site_id: int) -> Iterable[FaultEntry]:
        for entry in self.entries:
            if entry.site_id == site_id and task_name in TASKS_BY_STAGE[entry.stage]:
                yield entry

    def before_task(self, task: Any) -> None:
        """Fault hook run by ``repro.exec.run_site_task`` before the handler.

        ``task`` is a :class:`~repro.exec.tasks.SiteTask` (typed loosely to
        keep this package import-cycle free).  Raises
        :class:`~repro.faults.SiteDownError` for a matching kill,
        :class:`~repro.faults.TransientTaskError` for a still-failing flaky
        entry, and sleeps for matching slow entries.  Recovery re-runs
        (``task.recovery``) only trip *unrecoverable* kills: the rebuilt
        site is healthy by definition unless the plan says the site can
        never come back.
        """
        matching = list(self._entries_for(task.stage, task.site_id))
        for entry in matching:
            if entry.kind != KILL:
                continue
            if entry.unrecoverable or not task.recovery:
                raise SiteDownError(
                    task.site_id, entry.stage, recoverable=not entry.unrecoverable
                )
        if task.recovery:
            return
        # Slow fires before flaky on purpose: a first attempt that is both
        # slow and flaky pays its straggler latency *and then* fails, which
        # is what lets the timing tests prove failed attempts never count
        # into the stage timers.
        for entry in matching:
            if entry.kind == SLOW and task.attempt == 1:
                time.sleep(entry.delay_s)
        for entry in matching:
            if entry.kind == FLAKY and task.attempt <= entry.failures:
                raise TransientTaskError(task.site_id, entry.stage, task.attempt)

    def kills_shipment(self) -> bool:
        """Whether any entry targets the shipment-only assembly stage."""
        return any(
            entry.kind == KILL and entry.stage == STAGE_ASSEMBLY
            for entry in self.entries
        )


class ShipmentFaultInjector:
    """MessageBus hook that kills a site as it ships assembly results.

    Installed by the engine via ``MessageBus.fault_scope`` for the duration
    of one ``execute()`` call, so it is confined to the coordinator's merge
    thread — the ``_fired`` set needs no locking.  A recoverable kill fires
    once (the re-send after the site is rebuilt goes through); an
    unrecoverable kill fires on every matching send.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._fired: Set[int] = set()

    def __call__(self, source: int, destination: int, kind: str, stage: str) -> None:
        if stage != STAGE_ASSEMBLY:
            return
        for index, entry in enumerate(self.plan.entries):
            if entry.kind != KILL or entry.stage != STAGE_ASSEMBLY:
                continue
            if source != entry.site_id:
                continue
            if entry.unrecoverable:
                raise SiteDownError(entry.site_id, STAGE_ASSEMBLY, recoverable=False)
            if index in self._fired:
                continue
            self._fired.add(index)
            raise SiteDownError(entry.site_id, STAGE_ASSEMBLY, recoverable=True)
