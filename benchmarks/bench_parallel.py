"""Execution runtime A/B — serial vs threads vs processes on LUBM.

Not a paper figure: this benchmark validates the `repro.exec` subsystem the
way bench_planner validates the planner.  Every query runs cache-warm under
the serial backend, under thread pools and under process pools of several
sizes, recording real wall-clock time per backend and checking that results
and the per-stage shipment fingerprint are bit-identical across all of them.

Expected shape: determinism holds everywhere unconditionally.  Wall-clock
speedup is a property of the *host*:

* threads interleave rather than overlap pure-Python site tasks on a stock
  (GIL) CPython build, so the thread columns only show speedup on a
  multi-core free-threaded runtime;
* processes sidestep the GIL entirely — each worker owns a bootstrapped copy
  of the sites — so on a multi-core host (>= 4 cores and a workload heavy
  enough that per-task pickling cannot dominate) the process columns must
  beat serial by >= 1.5x on the multi-join LUBM workload.  On smaller hosts
  the A/B is recorded but not asserted.

`max_workers=1` must stay close to serial everywhere: backends run
single-item batches inline and only pay pool overhead on the multi-site
fan-out itself.
"""

import json
import os
import sys
from pathlib import Path

from repro.bench import (
    format_table,
    parallel_comparison_rows,
    prepare_workload,
    print_experiment,
)
from repro.core import GStoreDEngine
from repro.exec import SerialBackend
from repro.obs import Trace

WORKER_COUNTS = (1, 2, 4)
PROCESS_WORKER_COUNTS = (2, 4)
LUBM_QUERIES = ("LQ1", "LQ3", "LQ6", "LQ7")

#: The process-speedup gate of the acceptance contract: a host with at least
#: this many cores must show >= PROCESS_SPEEDUP_FLOOR on the multi-join
#: workload (given a workload large enough to be measurable, see below).
PROCESS_SPEEDUP_CORES = 4
PROCESS_SPEEDUP_FLOOR = 1.5
#: Below this serial total (ms) a single noisy round could dominate the
#: ratio, so the speedup stays a recorded observation instead of a gate.
PROCESS_SPEEDUP_MIN_SERIAL_MS = 300.0
#: Runs of the main A/B rewrite this artifact: the wall-clock rows plus one
#: per-stage trace summary per query (see docs/observability.md).
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _usable_cores() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _host_can_overlap_python() -> bool:
    """True when *threads* can actually run the per-site tasks in parallel."""
    gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)()
    return _usable_cores() >= 2 and not gil_enabled


def _host_can_overlap_processes() -> bool:
    """True when worker processes have real cores to spread over."""
    return _usable_cores() >= PROCESS_SPEEDUP_CORES


def traced_stage_summaries(query_names, num_sites):
    """One cache-warm traced serial run per query: the per-stage trace
    summaries embedded in the JSON artifact alongside the wall-clock rows,
    recording where each query's time went (stage spans with shipment
    attributes, one task span per site)."""
    workload = prepare_workload("LUBM", num_sites=num_sites)
    summaries = {}
    for name in query_names:
        workload.cluster.reset_network()
        engine = GStoreDEngine(workload.cluster, backend=SerialBackend())
        try:
            engine.execute(workload.queries[name], query_name=name)  # warm the plan cache
            workload.cluster.reset_network()
            # Opened only now: the root span must not include the warm-up run.
            trace = Trace("query", query=name)
            engine.execute(workload.queries[name], query_name=name, trace=trace)
        finally:
            engine.close()
        trace.finish()
        summaries[name] = trace.summary().splitlines()
    return summaries


def _process_speedup(rows) -> float:
    """Serial-over-best-process wall-clock ratio across the row set."""
    serial_total = sum(row["serial_wall_ms"] for row in rows)
    best_process_total = min(
        sum(row[f"processes{n}_wall_ms"] for row in rows) for n in PROCESS_WORKER_COUNTS
    )
    return serial_total / best_process_total if best_process_total else 0.0


def test_parallel_ab_lubm(benchmark, num_sites):
    rows = benchmark.pedantic(
        parallel_comparison_rows,
        args=("LUBM", LUBM_QUERIES),
        kwargs={
            "num_sites": num_sites,
            "worker_counts": WORKER_COUNTS,
            "process_worker_counts": PROCESS_WORKER_COUNTS,
        },
        iterations=1,
        rounds=1,
    )
    serial_total = sum(row["serial_wall_ms"] for row in rows)
    print_experiment(
        "Execution runtime A/B — LUBM wall clock (ms), serial vs threads vs processes",
        format_table(rows)
        + f"\nbest process speedup over serial: {_process_speedup(rows):.2f}x "
        + f"(cores={_usable_cores()}; informational here — the hard gate is "
        + "test_process_speedup_multijoin)",
    )
    # Determinism is unconditional: every backend and worker count returns
    # the same solutions and the same shipment fingerprint.
    assert all(row["identical"] for row in rows)
    threads1_total = sum(row["threads1_wall_ms"] for row in rows)
    # No regression at max_workers=1 beyond pool overhead and timer noise.
    assert threads1_total <= serial_total * 2.0 + 50.0
    # Thread speedup needs a host whose threads actually overlap Python *and*
    # a workload large enough that pool overhead can't dominate one noisy
    # round; below that this stays a recorded A/B, not a hard gate.
    if _host_can_overlap_python() and serial_total > 50.0:
        best_parallel = min(
            sum(row[f"threads{n}_wall_ms"] for row in rows) for n in WORKER_COUNTS if n > 1
        )
        assert best_parallel < serial_total
    payload = {
        "benchmark": "bench_parallel",
        "dataset": "LUBM",
        "num_sites": num_sites,
        "worker_counts": list(WORKER_COUNTS),
        "process_worker_counts": list(PROCESS_WORKER_COUNTS),
        "rows": rows,
        "best_process_speedup": round(_process_speedup(rows), 2),
        # Per-stage trace summaries: one traced serial run per query.
        "stage_traces": traced_stage_summaries(LUBM_QUERIES, num_sites),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RESULTS_PATH}")


def test_process_speedup_multijoin(benchmark, num_sites):
    """The multi-core gate: processes beat serial >= 1.5x on heavy multi-joins.

    Runs the multi-join LUBM queries at scale 3, where per-site partial
    evaluation dominates the per-task pickling, and asserts the >= 1.5x
    wall-clock speedup on hosts with >= 4 cores.  On smaller hosts the
    numbers are recorded (the determinism assertion still applies) but the
    speedup stays an observation — a 1-core container cannot overlap
    anything.
    """
    rows = benchmark.pedantic(
        parallel_comparison_rows,
        args=("LUBM", LUBM_QUERIES),
        kwargs={
            "scale": 3,
            "num_sites": num_sites,
            "worker_counts": (),
            "process_worker_counts": PROCESS_WORKER_COUNTS,
        },
        iterations=1,
        rounds=1,
    )
    serial_total = sum(row["serial_wall_ms"] for row in rows)
    process_speedup = _process_speedup(rows)
    print_experiment(
        "Execution runtime — process-pool speedup gate (LUBM scale 3, multi-join)",
        format_table(rows)
        + f"\nbest process speedup over serial: {process_speedup:.2f}x "
        + f"(cores={_usable_cores()}, gate armed={_host_can_overlap_processes()})",
    )
    assert all(row["identical"] for row in rows)
    # >= 4 usable cores and a measurable workload must show >= 1.5x.
    if _host_can_overlap_processes() and serial_total >= PROCESS_SPEEDUP_MIN_SERIAL_MS:
        assert process_speedup >= PROCESS_SPEEDUP_FLOOR, (
            f"expected >= {PROCESS_SPEEDUP_FLOOR}x process speedup on a "
            f"{_usable_cores()}-core host, measured {process_speedup:.2f}x"
        )


def test_parallel_star_queries_identical(benchmark, num_sites):
    """The star shortcut path also fans out per site; same determinism bar."""
    rows = benchmark.pedantic(
        parallel_comparison_rows,
        args=("LUBM", ("LQ2", "LQ4", "LQ5")),
        kwargs={
            "num_sites": num_sites,
            "worker_counts": (2,),
            "process_worker_counts": (2,),
        },
        iterations=1,
        rounds=1,
    )
    print_experiment(
        "Execution runtime A/B — LUBM star queries (local evaluation fan-out)",
        format_table(rows),
    )
    assert all(row["identical"] for row in rows)
    assert all(row["results"] > 0 for row in rows)
