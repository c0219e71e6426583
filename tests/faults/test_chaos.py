"""The deterministic chaos suite: kill any site at any stage, get clean answers.

The contract under test (``docs/faults.md``): with a recoverable
:class:`~repro.faults.FaultPlan`, the engine's answers, per-stage shipment
fingerprint, and retry counters are **bit-identical** to the fault-free run.
Unrecoverable
losses instead degrade: the result names the lost site and returns exactly
what the surviving fragments can answer.

Everything runs over the paper's example graph (3 sites, 4 solutions): the
Fig. 1 assignment, and the kill matrix again under every registered
partitioner, each on a module-local cluster — recovery rebuilds sites in place, so the suite never
shares the session-scoped fixture clusters with other tests.
"""

import pytest

from repro.bench import stage_shipment_snapshot as snapshot
from repro.core import EngineConfig, GStoreDEngine
from repro.datasets.paper_example import (
    build_example_graph,
    build_example_partitioning,
    example_query,
)
from repro.distributed import build_cluster
from repro.faults import INJECTABLE_STAGES, FaultPlan, RetryPolicy
from repro.partition import PARTITIONER_REGISTRY, make_partitioner

#: Every site of the Fig. 1 partitioning × every injectable pipeline stage.
SITES = (0, 1, 2)
PARTITIONERS = sorted(PARTITIONER_REGISTRY)

#: No sleeping in the kill matrix: recovery re-runs never retry in place, so
#: a zero-backoff policy keeps the suite fast without changing coverage.
FAST_RETRY = RetryPolicy(max_attempts=3, base_backoff_s=0.0, max_backoff_s=0.0)


@pytest.fixture(scope="module")
def chaos_cluster():
    return build_cluster(build_example_partitioning())


def run(cluster, faults=None):
    cluster.reset_network()
    engine = GStoreDEngine(cluster, EngineConfig.full(), faults=faults)
    return engine.execute(example_query())


def rows_of(result):
    return sorted(map(sorted, (row.items() for row in result.results.to_table())))


@pytest.fixture(scope="module")
def clean(chaos_cluster):
    """The fault-free reference: rows + shipment fingerprint."""
    result = run(chaos_cluster)
    return {"rows": rows_of(result), "snapshot": snapshot(result)}


@pytest.mark.parametrize("stage", INJECTABLE_STAGES)
@pytest.mark.parametrize("site", SITES)
def test_killing_any_site_at_any_stage_recovers_bit_for_bit(chaos_cluster, clean, site, stage):
    plan = FaultPlan.parse(f"kill:{site}@{stage}", retry=FAST_RETRY)
    result = run(chaos_cluster, faults=plan)
    assert rows_of(result) == clean["rows"]
    assert snapshot(result) == clean["snapshot"]
    work = result.statistics.work
    assert work["site_failures"] == 1
    assert work["site_recoveries"] == 1
    assert not result.statistics.extra.get("degraded")


@pytest.mark.parametrize("site", SITES)
def test_unrecoverable_loss_degrades_and_names_the_site(chaos_cluster, clean, site):
    plan = FaultPlan.parse(f"kill:{site}@partial_evaluation:unrecoverable", retry=FAST_RETRY)
    result = run(chaos_cluster, faults=plan)
    extra = result.statistics.extra
    assert extra["degraded"] is True
    assert extra["missing_sites"] == [site]
    assert "partial results" in extra["warning"]
    assert result.statistics.work["site_recoveries"] == 0
    # Never a wrong answer: what survives is a subset of the clean rows.
    survivors = rows_of(result)
    assert all(row in clean["rows"] for row in survivors)
    assert len(survivors) < len(clean["rows"])


def test_flaky_tasks_retry_in_place_without_changing_answers(chaos_cluster, clean):
    plan = FaultPlan.parse(
        "flaky:0@candidate_exchange:2;flaky:2@partial_evaluation", retry=FAST_RETRY
    )
    result = run(chaos_cluster, faults=plan)
    assert rows_of(result) == clean["rows"]
    assert snapshot(result) == clean["snapshot"]
    work = result.statistics.work
    assert work["task_retries"] == 3  # 2 + 1, deterministic
    assert work["site_failures"] == 0


def test_combined_plan_is_deterministic(chaos_cluster, clean):
    plan = FaultPlan.parse(
        "kill:1@partial_evaluation;flaky:0@candidate_exchange:2;kill:2@assembly",
        retry=FAST_RETRY,
    )
    result = run(chaos_cluster, faults=plan)
    assert rows_of(result) == clean["rows"]
    assert snapshot(result) == clean["snapshot"]
    work = result.statistics.work
    assert work["task_retries"] == 2
    assert work["site_failures"] == 2
    assert work["site_recoveries"] == 2


@pytest.fixture(scope="module")
def partitioned(clean):
    """strategy -> (cluster, clean reference) for the paper graph split by
    each registered partitioner onto the same three sites."""
    graph = build_example_graph()
    clusters = {}
    for strategy in PARTITIONERS:
        cluster = build_cluster(make_partitioner(strategy, len(SITES)).partition(graph))
        result = run(cluster)
        assert rows_of(result) == clean["rows"], strategy
        clusters[strategy] = (cluster, {"rows": rows_of(result), "snapshot": snapshot(result)})
    return clusters


@pytest.mark.parametrize("stage", INJECTABLE_STAGES)
@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("strategy", PARTITIONERS)
def test_killing_any_site_recovers_under_every_partitioner(partitioned, strategy, site, stage):
    """Other splits leave other crossing edges and LPMs behind a dead site;
    recovery must rebuild them all the same."""
    cluster, reference = partitioned[strategy]
    plan = FaultPlan.parse(f"kill:{site}@{stage}", retry=FAST_RETRY)
    result = run(cluster, faults=plan)
    assert rows_of(result) == reference["rows"]
    assert snapshot(result) == reference["snapshot"]
    work = result.statistics.work
    assert work["site_failures"] == 1
    assert work["site_recoveries"] == 1
    assert not result.statistics.extra.get("degraded")


@pytest.mark.parametrize("strategy", PARTITIONERS)
def test_combined_plan_is_deterministic_under_every_partitioner(partitioned, strategy):
    cluster, reference = partitioned[strategy]
    plan = FaultPlan.parse(
        "kill:1@partial_evaluation;flaky:0@candidate_exchange:2;kill:2@assembly",
        retry=FAST_RETRY,
    )
    result = run(cluster, faults=plan)
    assert rows_of(result) == reference["rows"]
    assert snapshot(result) == reference["snapshot"]
    work = result.statistics.work
    assert work["task_retries"] == 2
    assert work["site_failures"] == 2
    assert work["site_recoveries"] == 2


@pytest.mark.parametrize("strategy", PARTITIONERS)
def test_flaky_tasks_retry_in_place_under_every_partitioner(partitioned, strategy):
    cluster, reference = partitioned[strategy]
    plan = FaultPlan.parse(
        "flaky:0@candidate_exchange:2;flaky:2@partial_evaluation", retry=FAST_RETRY
    )
    result = run(cluster, faults=plan)
    assert rows_of(result) == reference["rows"]
    assert snapshot(result) == reference["snapshot"]
    work = result.statistics.work
    assert work["task_retries"] == 3
    assert work["site_failures"] == 0


@pytest.mark.parametrize("use_planner", [True, False])
def test_a_killed_site_is_rebuilt_fresh_and_answers_bit_for_bit(use_planner):
    """Recovery swaps in a new :class:`~repro.distributed.Site` over the
    dead one's fragment: new store and indexes, the dead site's planner
    setting, and the very same rows in the very same order."""
    cluster = build_cluster(build_example_partitioning())
    config = EngineConfig.full().with_options(use_planner=use_planner)

    def execute(faults=None):
        cluster.reset_network()
        return GStoreDEngine(cluster, config, faults=faults).execute(example_query())

    reference = execute()
    dead = cluster.site(1)
    plan = FaultPlan.parse("kill:1@partial_evaluation", retry=FAST_RETRY)
    recovered = execute(plan)
    rebuilt = cluster.site(1)
    assert recovered.statistics.work["site_recoveries"] == 1
    assert rebuilt is not dead
    assert rebuilt.store is not dead.store
    assert rebuilt.fragment is dead.fragment
    assert set(rebuilt.graph) == set(dead.graph)
    assert (rebuilt.planner is not None) is use_planner
    for result in (recovered, execute()):
        assert result.results.to_table() == reference.results.to_table()
        assert snapshot(result) == snapshot(reference)


def test_clean_runs_carry_no_fault_state(chaos_cluster):
    """Without a plan the statistics stay byte-identical to the pre-fault era."""
    result = run(chaos_cluster)
    assert "task_retries" not in result.statistics.work
    assert "degraded" not in result.statistics.extra


def test_slow_site_latency_shows_in_the_stage_timer(chaos_cluster):
    plan = FaultPlan.parse("slow:0@partial_evaluation:0.2", retry=FAST_RETRY)
    result = run(chaos_cluster, faults=plan)
    stage = next(s for s in result.statistics.stages if s.name == "partial_evaluation")
    assert max(stage.site_times_s.values()) >= 0.2


def test_retried_tasks_time_only_the_successful_attempt(chaos_cluster, clean):
    """The PR's timing fix: a flaky first attempt (with injected straggler
    latency) must not leak its failed attempt's wall clock into the stage
    timer — ``slow`` only fires on attempt 1, which is exactly the attempt
    ``flaky`` makes fail, so the successful attempt is fast."""
    plan = FaultPlan.parse(
        "flaky:0@partial_evaluation:1;slow:0@partial_evaluation:0.2", retry=FAST_RETRY
    )
    result = run(chaos_cluster, faults=plan)
    assert rows_of(result) == clean["rows"]
    assert result.statistics.work["task_retries"] >= 1
    stage = next(s for s in result.statistics.stages if s.name == "partial_evaluation")
    assert max(stage.site_times_s.values()) < 0.2
