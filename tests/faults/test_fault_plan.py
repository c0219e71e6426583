"""Unit tests for :mod:`repro.faults`: grammar, firing rules, retry policy.

The chaos suite (``test_chaos.py``) proves recovery end to end; this module
pins the pieces it is built from — the textual plan grammar, the pure firing
rules consulted inside ``run_site_task``, the literal stage/task mapping
the fault layer keeps to stay import-cycle free, and the deterministic
backoff schedule.
"""

import time

import pytest

from repro.core import engine as engine_module
from repro.core.site_tasks import PIPELINE_STAGE_TASKS
from repro.exec.tasks import SiteTask
from repro.faults import (
    DEFAULT_RETRY_POLICY,
    FLAKY,
    INJECTABLE_STAGES,
    KILL,
    SLOW,
    STAGE_ASSEMBLY,
    STAGE_CANDIDATES,
    STAGE_PARTIAL_EVAL,
    TASKS_BY_STAGE,
    FaultEntry,
    FaultPlan,
    RetryPolicy,
    ShipmentFaultInjector,
    SiteDownError,
    TransientTaskError,
)


# ----------------------------------------------------------------------
# The literal copies the fault layer keeps (import-cycle avoidance)
# ----------------------------------------------------------------------
def test_tasks_by_stage_matches_the_engine_pipeline():
    """``repro.faults`` keeps a literal copy of the stage→task mapping; this
    pin is what lets it avoid importing ``repro.core``."""
    assert TASKS_BY_STAGE == PIPELINE_STAGE_TASKS


def test_stage_constants_match_the_engine():
    assert STAGE_CANDIDATES == engine_module.STAGE_CANDIDATES
    assert STAGE_PARTIAL_EVAL == engine_module.STAGE_PARTIAL_EVAL
    assert STAGE_ASSEMBLY == engine_module.STAGE_ASSEMBLY
    assert "lec_pruning" in INJECTABLE_STAGES
    assert engine_module.STAGE_PRUNING in INJECTABLE_STAGES


# ----------------------------------------------------------------------
# Grammar
# ----------------------------------------------------------------------
def test_parse_round_trips_through_describe():
    text = (
        "kill:1@partial_evaluation;flaky:0@candidate_exchange:2;"
        "slow:2@lec_pruning:0.005;kill:0@assembly:unrecoverable"
    )
    plan = FaultPlan.parse(text)
    assert FaultPlan.parse(plan.describe()) == plan
    kinds = [entry.kind for entry in plan.entries]
    assert kinds == [KILL, FLAKY, SLOW, KILL]
    assert plan.entries[1].failures == 2
    assert plan.entries[2].delay_s == pytest.approx(0.005)
    assert plan.entries[3].unrecoverable


def test_parse_accepts_comma_separators_and_whitespace():
    plan = FaultPlan.parse(" kill:1@assembly , flaky:0@lec_filter ")
    assert len(plan.entries) == 2
    assert plan.entries[1].failures == 1


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "explode:1@assembly",
        "kill:one@assembly",
        "kill:1@no_such_stage",
        "kill:1@assembly:loudly",
        "flaky:1@assembly",  # assembly has no per-site compute task
        "slow:1@assembly:0.1",
        "flaky:1@partial_evaluation:zero",
        "slow:1@partial_evaluation",  # slow needs a delay
        "kill:1",  # no stage
        "kill:1@partial_evaluation:a:b",
    ],
)
def test_parse_rejects_malformed_plans(bad):
    with pytest.raises(ValueError):
        FaultPlan.parse(bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="explode", site_id=0, stage=STAGE_PARTIAL_EVAL),
        dict(kind=KILL, site_id=-1, stage=STAGE_PARTIAL_EVAL),
        dict(kind=FLAKY, site_id=0, stage=STAGE_PARTIAL_EVAL, failures=0),
        dict(kind=SLOW, site_id=0, stage=STAGE_PARTIAL_EVAL, delay_s=0.0),
        dict(kind=FLAKY, site_id=0, stage=STAGE_ASSEMBLY),
    ],
)
def test_entry_validation(kwargs):
    with pytest.raises(ValueError):
        FaultEntry(**kwargs)


def test_random_plans_are_seeded_and_survivable():
    sites = [0, 1, 2, 3]
    plan = FaultPlan.random(7, sites)
    assert plan == FaultPlan.random(7, sites)
    seen = {FaultPlan.random(seed, sites).describe() for seed in range(20)}
    assert len(seen) > 1  # the seed actually varies the schedule
    for seed in range(20):
        for entry in FaultPlan.random(seed, sites).entries:
            assert entry.site_id in sites
            if entry.kind == KILL:
                assert not entry.unrecoverable
            if entry.kind == FLAKY:
                # within the default budget: every flaky task still succeeds
                assert entry.failures < DEFAULT_RETRY_POLICY.max_attempts


def test_random_plan_requires_site_ids():
    with pytest.raises(ValueError):
        FaultPlan.random(1, [])


# ----------------------------------------------------------------------
# Firing rules (pure functions of the task descriptor)
# ----------------------------------------------------------------------
def _task(name, site_id, attempt=1, recovery=False):
    return SiteTask(site_id, name, _no_work, attempt=attempt, recovery=recovery)


def _no_work(site, payload):
    """The handler of the descriptors above; the firing rules never call it."""


def test_kill_fires_on_every_task_of_its_stage():
    plan = FaultPlan.parse("kill:1@partial_evaluation")
    for task_name in TASKS_BY_STAGE[STAGE_PARTIAL_EVAL]:
        with pytest.raises(SiteDownError) as info:
            plan.before_task(_task(task_name, 1))
        assert info.value.recoverable
    # other sites and other stages pass untouched
    plan.before_task(_task("engine.partial_eval", 0))
    plan.before_task(_task("engine.candidate_vectors", 1))


def test_recovery_reruns_skip_recoverable_faults_but_not_unrecoverable_kills():
    recoverable = FaultPlan.parse("kill:1@partial_evaluation;flaky:1@partial_evaluation:9")
    recoverable.before_task(_task("engine.partial_eval", 1, recovery=True))
    permanent = FaultPlan.parse("kill:1@partial_evaluation:unrecoverable")
    with pytest.raises(SiteDownError) as info:
        permanent.before_task(_task("engine.partial_eval", 1, recovery=True))
    assert not info.value.recoverable


def test_flaky_fires_until_its_failure_budget_is_spent():
    plan = FaultPlan.parse("flaky:0@candidate_exchange:2")
    for attempt in (1, 2):
        with pytest.raises(TransientTaskError):
            plan.before_task(_task("engine.candidate_vectors", 0, attempt=attempt))
    plan.before_task(_task("engine.candidate_vectors", 0, attempt=3))  # succeeds


def test_slow_sleeps_on_the_first_attempt_only():
    plan = FaultPlan.parse("slow:0@partial_evaluation:0.05")
    started = time.perf_counter()
    plan.before_task(_task("engine.local_eval", 0, attempt=1))
    assert time.perf_counter() - started >= 0.05
    started = time.perf_counter()
    plan.before_task(_task("engine.local_eval", 0, attempt=2))
    assert time.perf_counter() - started < 0.05


def test_kills_shipment_flags_assembly_entries_only():
    assert FaultPlan.parse("kill:1@assembly").kills_shipment()
    assert not FaultPlan.parse("kill:1@partial_evaluation").kills_shipment()


# ----------------------------------------------------------------------
# Shipment injector (assembly-stage kills)
# ----------------------------------------------------------------------
def test_shipment_injector_recoverable_kill_fires_once():
    injector = ShipmentFaultInjector(FaultPlan.parse("kill:2@assembly"))
    injector(0, -1, "assembly_results", "assembly")  # other site: clean
    injector(2, -1, "candidate_vectors", "candidate_exchange")  # other stage
    with pytest.raises(SiteDownError) as info:
        injector(2, -1, "assembly_results", "assembly")
    assert info.value.recoverable
    injector(2, -1, "assembly_results", "assembly")  # the re-send goes through


def test_shipment_injector_unrecoverable_kill_fires_every_time():
    injector = ShipmentFaultInjector(FaultPlan.parse("kill:2@assembly:unrecoverable"))
    for _ in range(3):
        with pytest.raises(SiteDownError) as info:
            injector(2, -1, "assembly_results", "assembly")
        assert not info.value.recoverable


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
def test_backoff_doubles_and_caps():
    policy = RetryPolicy(max_attempts=5, base_backoff_s=0.01, max_backoff_s=0.03)
    assert policy.backoff_for(1) == pytest.approx(0.01)
    assert policy.backoff_for(2) == pytest.approx(0.02)
    assert policy.backoff_for(3) == pytest.approx(0.03)  # capped
    assert policy.backoff_for(4) == pytest.approx(0.03)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_attempts=0),
        dict(base_backoff_s=-0.001),
        dict(max_backoff_s=-1.0),
    ],
)
def test_retry_policy_validation(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)
