"""Determinism regression: worker count must never change what the engine reports.

The parallel runtime's contract is bit-identical *answers and accounting*:
running the same query under `max_workers` 1, 2 and 8 (and under the serial
reference backend) must produce identical solutions and identical
``shipped_bytes`` / ``messages`` for every stage — completion order must
never leak into the statistics.
"""

import pytest

from repro.bench import stage_shipment_snapshot as snapshot
from repro.core import GStoreDEngine
from repro.datasets import get_dataset
from repro.exec import EXECUTOR_ENV_VAR, SerialBackend, ThreadPoolBackend
from repro.obs import CATEGORY_TASK, Trace

WORKER_COUNTS = (1, 2, 8)

#: Explicitly serial, so the reference stays the reference even when the
#: suite runs under REPRO_EXECUTOR=threads (the CI matrix leg).
SERIAL = SerialBackend()


def stage_counters(result):
    """Every stage's counters except the plan-cache probe (warm-up dependent)."""
    return [
        (stage.name, {name: value for name, value in stage.counters.items() if name != "plan_cache_hit"})
        for stage in result.statistics.stages
    ]


def run(cluster, query, backend, trace=None):
    """One execution on an injected ``backend`` (the caller closes it)."""
    cluster.reset_network()
    return GStoreDEngine(cluster, backend=backend).execute(query, trace=trace)


@pytest.mark.parametrize("query_name", ["LQ1", "LQ7", "LQ2"])  # complex x2 + star
def test_worker_count_does_not_change_results_or_accounting(lubm_cluster, query_name):
    query = get_dataset("LUBM").queries()[query_name]
    # Warm the plan caches so the planning stage is in steady state for
    # every run (the cache-hit counter is not part of the fingerprint, but
    # warmed caches keep the runs maximally comparable).
    run(lubm_cluster, query, SERIAL)
    reference = run(lubm_cluster, query, SERIAL)
    reference_rows = sorted(map(sorted, (row.items() for row in reference.results.to_table())))
    for workers in WORKER_COUNTS:
        with ThreadPoolBackend(workers) as backend:
            result = run(lubm_cluster, query, backend)
        rows = sorted(map(sorted, (row.items() for row in result.results.to_table())))
        assert rows == reference_rows
        assert result.results.same_solutions(reference.results)
        assert snapshot(result) == snapshot(reference)
        assert stage_counters(result) == stage_counters(reference)


def test_threaded_runs_agree_with_each_other(lubm_cluster):
    query = get_dataset("LUBM").queries()["LQ6"]
    snapshots = []
    result_sets = []
    for workers in WORKER_COUNTS:
        with ThreadPoolBackend(workers) as backend:
            result = run(lubm_cluster, query, backend)
        snapshots.append(snapshot(result))
        result_sets.append(result.results)
    assert all(snap == snapshots[0] for snap in snapshots)
    assert all(results.same_solutions(result_sets[0]) for results in result_sets)


@pytest.mark.parametrize("query_name", ["LQ1", "LQ2"])  # general pipeline + star shortcut
def test_tracing_does_not_change_results_or_accounting(lubm_cluster, query_name):
    """Observability must be a pure observer: with a trace attached, every
    worker count still produces bit-identical answers, shipment fingerprints
    and ``search_steps`` — and the trace itself gains per-site task spans."""
    query = get_dataset("LUBM").queries()[query_name]
    run(lubm_cluster, query, SERIAL)  # warm the plan cache
    reference = run(lubm_cluster, query, SERIAL)
    reference_rows = sorted(map(sorted, (row.items() for row in reference.results.to_table())))
    for workers in WORKER_COUNTS:
        trace = Trace("query")
        with ThreadPoolBackend(workers) as backend:
            result = run(lubm_cluster, query, backend, trace=trace)
        trace.finish()
        rows = sorted(map(sorted, (row.items() for row in result.results.to_table())))
        assert rows == reference_rows
        assert snapshot(result) == snapshot(reference)
        assert result.statistics.work == reference.statistics.work
        assert stage_counters(result) == stage_counters(reference)
        task_spans = trace.find_spans(category=CATEGORY_TASK)
        assert len(task_spans) >= lubm_cluster.num_sites


def test_traced_serial_equals_untraced_serial(lubm_cluster):
    query = get_dataset("LUBM").queries()["LQ7"]
    untraced = run(lubm_cluster, query, SERIAL)
    traced = run(lubm_cluster, query, SERIAL, trace=Trace("query"))
    assert traced.results.same_solutions(untraced.results)
    assert traced.results.to_table() == untraced.results.to_table()  # row sequence too
    assert snapshot(traced) == snapshot(untraced)
    assert traced.statistics.work == untraced.statistics.work
    # Both coordinator joins report the same work with or without their
    # ``coordinator`` spans around them.
    assert stage_counters(traced) == stage_counters(untraced)
    assert traced.statistics.counter("lec_pruning", "join_attempts") > 0
    assert traced.statistics.counter("lec_pruning", "complete_combinations") > 0
    assert traced.statistics.counter("assembly", "join_attempts") > 0


def test_executor_is_recorded_for_non_serial_backends_only(lubm_cluster):
    query = get_dataset("LUBM").queries()["LQ2"]
    serial = run(lubm_cluster, query, SERIAL)
    with ThreadPoolBackend(2) as backend:
        threaded = run(lubm_cluster, query, backend)
    # The serial reference must keep the paper's table layout unchanged.
    assert "executor" not in serial.statistics.extra
    assert threaded.statistics.extra["executor"] == "threads"
    assert threaded.statistics.extra["max_workers"] == 2


def test_reference_stays_serial_under_a_parallel_environment(lubm_cluster, monkeypatch):
    """Under the CI's REPRO_EXECUTOR=processes leg an engine built without a
    backend follows the environment; the reference pins SerialBackend, or
    every serial-vs-parallel check above would compare processes with
    processes and pass vacuously."""
    monkeypatch.setenv(EXECUTOR_ENV_VAR, "processes")
    with GStoreDEngine(lubm_cluster) as engine:
        assert engine.backend.name == "processes"
    reference = run(lubm_cluster, get_dataset("LUBM").queries()["LQ7"], SERIAL)
    assert "executor" not in reference.statistics.extra
