"""Property-based chaos: random recoverable fault plans never change answers.

Hypothesis drives :class:`~repro.faults.FaultPlan` construction directly
(random kills, flaky bursts within the retry budget, small straggler
delays) and asserts the determinism contract as a *property*: recovered
answers and shipment fingerprints equal the fault-free run, and replaying a
plan reproduces its retry and failure counters — for every generated plan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import stage_shipment_snapshot as snapshot
from repro.core import EngineConfig, GStoreDEngine
from repro.datasets.paper_example import build_example_partitioning, example_query
from repro.distributed import build_cluster
from repro.faults import (
    FLAKY,
    INJECTABLE_STAGES,
    KILL,
    SLOW,
    TASK_STAGES,
    FaultEntry,
    FaultPlan,
    RetryPolicy,
)

SITES = (0, 1, 2)

#: Zero backoff — retries are instant, so generated plans cost microseconds.
FAST_RETRY = RetryPolicy(max_attempts=3, base_backoff_s=0.0, max_backoff_s=0.0)

#: Recoverable-only entries: kills heal, flaky bursts stay within the retry
#: budget, and slow delays are tiny (they must not dominate the suite).
kill_entries = st.builds(
    FaultEntry,
    kind=st.just(KILL),
    site_id=st.sampled_from(SITES),
    stage=st.sampled_from(INJECTABLE_STAGES),
)
flaky_entries = st.builds(
    FaultEntry,
    kind=st.just(FLAKY),
    site_id=st.sampled_from(SITES),
    stage=st.sampled_from(TASK_STAGES),
    failures=st.integers(min_value=1, max_value=FAST_RETRY.max_attempts - 1),
)
slow_entries = st.builds(
    FaultEntry,
    kind=st.just(SLOW),
    site_id=st.sampled_from(SITES),
    stage=st.sampled_from(TASK_STAGES),
    delay_s=st.sampled_from((0.0005, 0.001)),
)
plans = st.lists(
    st.one_of(kill_entries, flaky_entries, slow_entries), min_size=1, max_size=4
).map(lambda entries: FaultPlan(tuple(entries), retry=FAST_RETRY))


@pytest.fixture(scope="module")
def chaos_cluster():
    return build_cluster(build_example_partitioning())


def run(cluster, faults=None):
    cluster.reset_network()
    return GStoreDEngine(cluster, EngineConfig.full(), faults=faults).execute(example_query())


def rows_of(result):
    return sorted(map(sorted, (row.items() for row in result.results.to_table())))


@pytest.fixture(scope="module")
def clean(chaos_cluster):
    result = run(chaos_cluster)
    return {"rows": rows_of(result), "snapshot": snapshot(result)}


@settings(max_examples=15, deadline=None)
@given(plan=plans)
def test_recoverable_plans_preserve_answers_and_fingerprints(chaos_cluster, clean, plan):
    result = run(chaos_cluster, faults=plan)
    assert rows_of(result) == clean["rows"]
    assert snapshot(result) == clean["snapshot"]
    assert not result.statistics.extra.get("degraded")


@settings(max_examples=15, deadline=None)
@given(plan=plans)
def test_replayed_plans_reproduce_retry_and_failure_counters(chaos_cluster, plan):
    counters = []
    for _ in range(2):
        work = run(chaos_cluster, faults=plan).statistics.work
        counters.append(
            (work["task_retries"], work["site_failures"], work["site_recoveries"])
        )
    assert counters[0] == counters[1]


@settings(max_examples=25, deadline=None)
@given(plan=plans)
def test_plans_round_trip_through_their_textual_form(plan):
    assert FaultPlan.parse(plan.describe(), retry=FAST_RETRY) == plan


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_seeded_plans_are_survivable(chaos_cluster, clean, seed):
    plan = FaultPlan.random(seed, list(SITES), retry=FAST_RETRY)
    result = run(chaos_cluster, faults=plan)
    assert rows_of(result) == clean["rows"]
    assert snapshot(result) == clean["snapshot"]
    assert not result.statistics.extra.get("degraded")
