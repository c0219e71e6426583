"""Determinism regression: repeating or tracing a query never changes what the engine reports.

Running the same query again (warm caches) or with a trace attached must
produce identical solutions and identical ``shipped_bytes`` / ``messages``
for every stage.
"""

import pytest

from repro.bench import stage_shipment_snapshot as snapshot
from repro.core import GStoreDEngine
from repro.datasets import get_dataset
from repro.obs import CATEGORY_TASK, Trace


def stage_counters(result):
    """Every stage's counters except the plan-cache probe (warm-up dependent)."""
    return [
        (stage.name, {name: value for name, value in stage.counters.items() if name != "plan_cache_hit"})
        for stage in result.statistics.stages
    ]


def run(cluster, query, trace=None):
    """One execution on a fresh network."""
    cluster.reset_network()
    return GStoreDEngine(cluster).execute(query, trace=trace)


@pytest.mark.parametrize("query_name", ["LQ1", "LQ7", "LQ2"])  # complex x2 + star
def test_repeated_runs_do_not_change_results_or_accounting(lubm_cluster, query_name):
    query = get_dataset("LUBM").queries()[query_name]
    # Warm the plan caches so the planning stage is in steady state for
    # every run (the cache-hit counter is not part of the fingerprint, but
    # warmed caches keep the runs maximally comparable).
    run(lubm_cluster, query)
    reference = run(lubm_cluster, query)
    for _ in range(2):
        result = run(lubm_cluster, query)
        assert result.results.to_table() == reference.results.to_table()  # row sequence too
        assert snapshot(result) == snapshot(reference)
        assert stage_counters(result) == stage_counters(reference)


@pytest.mark.parametrize("query_name", ["LQ1", "LQ2"])  # general pipeline + star shortcut
def test_tracing_does_not_change_results_or_accounting(lubm_cluster, query_name):
    """Observability must be a pure observer: with a trace attached the run
    still produces bit-identical answers, shipment fingerprints and
    ``search_steps`` — and the trace itself gains per-site task spans."""
    query = get_dataset("LUBM").queries()[query_name]
    run(lubm_cluster, query)  # warm the plan cache
    reference = run(lubm_cluster, query)
    reference_rows = sorted(map(sorted, (row.items() for row in reference.results.to_table())))
    trace = Trace("query")
    result = run(lubm_cluster, query, trace=trace)
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
    untraced = run(lubm_cluster, query)
    traced = run(lubm_cluster, query, trace=Trace("query"))
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


def test_statistics_keep_the_paper_table_layout(lubm_cluster):
    result = run(lubm_cluster, get_dataset("LUBM").queries()["LQ2"])
    assert "executor" not in result.statistics.extra
    assert "max_workers" not in result.statistics.extra
