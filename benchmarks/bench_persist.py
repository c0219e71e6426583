"""Persistence A/B — warm cold-open from a store file vs full rebuild.

The point of :mod:`repro.persist` is the restart path: a coordinator (or a
``repro serve`` process) coming back up should *open* its cluster from the
store file instead of regenerating the dataset, re-partitioning it and
re-collecting per-fragment statistics.  This benchmark measures both paths
to a fully queryable cluster (statistics forced, one query answered) on the
LUBM workload at scale 2 and gates the ratio:

* cold-open (``ClusterStore.open`` + ``load_cluster``) must not be slower
  than the full rebuild (generate + partition + build + statistics), i.e.
  reach ``COLD_OPEN_SPEEDUP_FLOOR``x.  The gate used to be 3x: about 170 of
  the rebuild's 240 ms were the then-quadratic ``PartitionedGraph.validate()``
  check, which the store path skips; with the check linear the two paths do
  comparable work and the measured ratio is 1.2-1.5x;
* both paths must return bit-identical answers and per-stage shipment
  fingerprints (the determinism contract of docs/persistence.md).

Runs rewrite ``BENCH_persist.json`` with the measured wall-clock numbers,
the store-file size and the parity verdicts.
"""

import dataclasses
import json
import time
from pathlib import Path

from repro.bench import (
    format_table,
    prepare_workload,
    print_experiment,
    run_query,
    stage_shipment_snapshot,
)
from repro.persist import ClusterStore

DATASET = "LUBM"
SCALE = 2
NUM_SITES = 6
QUERY = "LQ2"

#: The acceptance gate: opening a saved cluster must not be slower than
#: rebuilding it from scratch.
COLD_OPEN_SPEEDUP_FLOOR = 1.0

#: Wall-clock rounds per path; the best round counts (noise suppression).
ROUNDS = 5

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_persist.json"


def _force_statistics(cluster):
    """Touch every site's planner statistics so both paths end equally warm."""
    for site in cluster:
        site.store.statistics


def _fingerprint(workload):
    result = run_query(workload, QUERY)
    rows = sorted(map(sorted, (row.items() for row in result.results.to_table())))
    return rows, dict(result.statistics.work), stage_shipment_snapshot(result)


def persist_ab():
    """Measure rebuild vs cold-open to a queryable cluster; return one row.

    Rebuild and cold-open rounds alternate (rebuild, cold-open, rebuild,
    cold-open, ...) so a drift in host speed during the run reaches both
    paths alike; the store file is written once, after the first rebuild and
    outside the timings.  The best round of each path counts, so the ratio
    compares the work the paths do rather than one-time process warmup
    (first SQLite open, lazy imports) or timer noise.
    """
    path = RESULTS_PATH.parent / "BENCH_persist.store"
    rebuild_times, cold_times = [], []
    store = None
    try:
        for _ in range(ROUNDS):
            # Full rebuild: the path every session pays without a store file.
            started = time.perf_counter()
            rebuilt = prepare_workload(DATASET, scale=SCALE, strategy="hash", num_sites=NUM_SITES)
            _force_statistics(rebuilt.cluster)
            rebuild_times.append(time.perf_counter() - started)
            if store is None:
                ClusterStore.create(
                    path, rebuilt.partitioned, dataset=DATASET, scale=SCALE, overwrite=True
                ).close()
                file_bytes = path.stat().st_size
            else:
                store.close()

            # Cold-open: what a restarting coordinator pays instead.
            started = time.perf_counter()
            store = ClusterStore.open(path)
            reopened = store.load_cluster()
            _force_statistics(reopened)
            cold_times.append(time.perf_counter() - started)

        warm = dataclasses.replace(rebuilt, cluster=reopened)
        identical = _fingerprint(warm) == _fingerprint(rebuilt)
    finally:
        if store is not None:
            store.close()
        path.unlink(missing_ok=True)
    rebuild_s, cold_open_s = min(rebuild_times), min(cold_times)

    return {
        "dataset": f"{DATASET}@{SCALE}",
        "num_sites": NUM_SITES,
        "base_triples": len(rebuilt.graph),
        "store_kb": round(file_bytes / 1024.0, 1),
        "rebuild_wall_ms": round(rebuild_s * 1000.0, 2),
        "cold_open_wall_ms": round(cold_open_s * 1000.0, 2),
        "speedup": round(rebuild_s / cold_open_s, 2) if cold_open_s else 0.0,
        "identical": identical,
    }


def test_persist_cold_open_speedup(benchmark):
    row = benchmark.pedantic(persist_ab, iterations=1, rounds=1)
    print_experiment(
        f"Persistence A/B — store cold-open vs full rebuild ({DATASET} scale {SCALE})",
        format_table([row])
        + f"\ncold-open speedup over rebuild: {row['speedup']:.2f}x "
        + f"(gate: >= {COLD_OPEN_SPEEDUP_FLOOR}x)",
    )
    assert row["identical"], "reopened cluster diverged from the rebuilt cluster"
    assert row["speedup"] >= COLD_OPEN_SPEEDUP_FLOOR, (
        f"expected cold-open not slower than a full rebuild "
        f"(>= {COLD_OPEN_SPEEDUP_FLOOR}x), measured {row['speedup']:.2f}x"
    )
    payload = {"benchmark": "bench_persist", "gate": COLD_OPEN_SPEEDUP_FLOOR, "row": row}
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RESULTS_PATH}")
