"""Kernel A/B — object path vs the encoded kernel, plus shard scaling.

Not a paper figure: this benchmark validates the `repro.store` matching
kernel the way `bench_planner.py` validates the planner.  Two sections,
each a pytest test so the CI bench-smoke job runs both:

1. **Object-path A/B** (`test_kernel_ab_lubm`) — the seed's object-path
   matcher (candidate pools of ``Node`` objects, per-step ``n3()`` sorts,
   generator-scan edge checks), preserved verbatim in `kernel_reference.py`,
   against the encoded kernel.  Gate: encoded ``>= 2x`` on the
   multi-join workload (``>= 1x`` in smoke mode).
2. **Shard scaling** (`test_kernel_shard_scaling`) — intra-site sharding of
   the depth-0 frontier: per-shard critical-path time for K in {2, 4, 8},
   asserting the concatenated shard bindings and summed ``search_steps``
   reproduce the unsharded run exactly.

Every section asserts **bit-identical behaviour** before timing anything:
identical match *sequences* and identical ``search_steps`` for every query
(the dictionary assigns ids in the old candidate sort order, so the kernel
visits the exact same branches as the object path).

With ``REPRO_KERNEL_SMOKE=1`` everything runs at tiny scale with
non-regression gates — that is the CI bench-smoke job.  Full (non-smoke)
runs rewrite ``BENCH_kernel.json`` at the repository root once both
sections have run; see `docs/benchmarks.md` and `docs/performance.md`.
"""

import json
import os
import time
from contextlib import nullcontext
from pathlib import Path

from kernel_reference import ReferenceObjectMatcher
from repro.bench import format_table, print_experiment
from repro.datasets import lubm
from repro.obs import CATEGORY_STAGE, Trace
from repro.sparql.query_graph import QueryGraph
from repro.store import LocalMatcher

#: Smoke mode: tiny scale, non-regression gates only (the CI bench-smoke job).
SMOKE = os.environ.get("REPRO_KERNEL_SMOKE") == "1"
SCALE = 1 if SMOKE else 2
#: Shard scaling runs at a larger scale: a tiny depth-0 frontier has
#: nothing to split.
KERNEL_SCALE = 2 if SMOKE else 24
SPEEDUP_GATE = 1.0 if SMOKE else 2.0
REPEATS = 3 if SMOKE else 7
SHARD_COUNTS = (2, 4, 8)
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: Sections accumulate here; the last test writes the JSON artifact once
#: every section is present (so running a single test never writes a
#: partial file).
_SECTIONS = {}

#: LUBM graphs are immutable here — share them across the sections.
_GRAPH_CACHE = {}


def _lubm_graph(scale):
    if scale not in _GRAPH_CACHE:
        _GRAPH_CACHE[scale] = lubm.generate(scale=scale)
    return _GRAPH_CACHE[scale]


# ----------------------------------------------------------------------
# A/B harness (the object-path baseline lives in kernel_reference.py)
# ----------------------------------------------------------------------
def _best_ms(run, repeats=REPEATS):
    """Best-of-N wall-clock of ``run()`` in milliseconds (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def kernel_comparison_rows(scale=SCALE, trace=None):
    """One row per LUBM query: object path vs encoded kernel, warm caches.

    With a ``trace`` attached, each query's A/B measurement becomes one
    stage span carrying the measured times as attributes, so the JSON
    artifact records a per-stage trace summary alongside the raw rows.
    """
    graph = _lubm_graph(scale)
    queries = lubm.queries()
    encoded = LocalMatcher(graph)
    reference = ReferenceObjectMatcher(graph)
    rows = []
    for name, query in queries.items():
        query_graph = QueryGraph.from_query(query)
        encoded_matches = list(encoded.find_matches(query_graph))
        encoded_steps = encoded.search_steps
        reference_matches = list(reference.find_matches(query_graph))
        reference_steps = reference.search_steps
        # Bit-identical behaviour: same match sequence, same work counter.
        assert encoded_matches == reference_matches, f"{name}: kernels disagree on matches"
        assert encoded_steps == reference_steps, f"{name}: kernels disagree on search_steps"
        span_cm = (
            trace.span(f"stage:match:{name}", CATEGORY_STAGE)
            if trace is not None
            else nullcontext()
        )
        with span_cm as span:
            object_ms = _best_ms(lambda: list(reference.find_matches(query_graph)))
            encoded_ms = _best_ms(lambda: list(encoded.find_matches(query_graph)))
            if span is not None:
                span.set(
                    shape=query_graph.classify_shape(),
                    search_steps=encoded_steps,
                    object_ms=round(object_ms, 3),
                    encoded_ms=round(encoded_ms, 3),
                )
        rows.append(
            {
                "query": name,
                "shape": query_graph.classify_shape(),
                "results": len(encoded_matches),
                "search_steps": encoded_steps,
                "object_ms": round(object_ms, 3),
                "encoded_ms": round(encoded_ms, 3),
                "speedup": round(object_ms / encoded_ms, 2) if encoded_ms else float("inf"),
            }
        )
    return rows


def _workload_speedup(rows):
    object_total = sum(row["object_ms"] for row in rows)
    encoded_total = sum(row["encoded_ms"] for row in rows)
    speedup = object_total / encoded_total if encoded_total else float("inf")
    return object_total, encoded_total, speedup


# ----------------------------------------------------------------------
# Section 2: intra-site shard scaling
# ----------------------------------------------------------------------
def shard_scaling_rows(scale=KERNEL_SCALE, shard_counts=SHARD_COUNTS):
    """Critical-path time of the sharded search for each LUBM query.

    Every (query, K) pair first proves the sharding contract — the shards'
    bindings concatenated in shard order equal the unsharded sequence and
    their ``search_steps`` sum to the unsharded total — then records the
    slowest shard's time (the critical path a K-worker pool would see).
    """
    matcher = LocalMatcher(_lubm_graph(scale))
    rows = []
    for name, query in lubm.queries().items():
        unsharded = matcher.raw_matches(query)
        unsharded_steps = matcher.search_steps
        unsharded_ms = _best_ms(lambda: matcher.raw_matches(query))
        for num_shards in shard_counts:
            combined = []
            steps = 0
            shard_ms = []
            for index in range(num_shards):
                combined.extend(matcher.shard_matches(query, index, num_shards))
                steps += matcher.search_steps
                shard_ms.append(
                    _best_ms(lambda i=index: matcher.shard_matches(query, i, num_shards))
                )
            assert combined == unsharded, f"{name}: shard concat diverges at K={num_shards}"
            assert steps == unsharded_steps, f"{name}: shard steps diverge at K={num_shards}"
            critical = max(shard_ms)
            rows.append(
                {
                    "query": name,
                    "shards": num_shards,
                    "unsharded_ms": round(unsharded_ms, 3),
                    "critical_path_ms": round(critical, 3),
                    "speedup": round(unsharded_ms / critical, 2) if critical else float("inf"),
                }
            )
    return rows


# ----------------------------------------------------------------------
# The tests (pytest runs them in definition order; the last writes JSON)
# ----------------------------------------------------------------------
def test_kernel_ab_lubm(benchmark):
    trace = Trace("bench_kernel", scale=SCALE)
    rows = benchmark.pedantic(
        kernel_comparison_rows, kwargs={"trace": trace}, iterations=1, rounds=1
    )
    trace.finish()
    mode = "smoke" if SMOKE else "full"
    print_experiment(
        f"Kernel A/B — LUBM scale {SCALE} ({mode}): object path vs encoded kernel",
        format_table(rows),
    )
    multi_join = [row for row in rows if row["shape"] != "star"]
    stars = [row for row in rows if row["shape"] == "star"]
    assert multi_join and stars, "the LUBM workload must cover both shape families"

    object_mj, encoded_mj, speedup_mj = _workload_speedup(multi_join)
    object_star, encoded_star, speedup_star = _workload_speedup(stars)
    print(
        f"multi-join: {object_mj:.2f}ms -> {encoded_mj:.2f}ms ({speedup_mj:.1f}x)   "
        f"star: {object_star:.2f}ms -> {encoded_star:.2f}ms ({speedup_star:.1f}x)"
    )
    # The gate: >= 2x on the multi-join workload in full runs; the CI smoke
    # run only requires the encoded kernel not to be slower.
    assert speedup_mj >= SPEEDUP_GATE, (
        f"encoded kernel speedup {speedup_mj:.2f}x below the {SPEEDUP_GATE}x gate on multi-joins"
    )
    assert speedup_star >= SPEEDUP_GATE, (
        f"encoded kernel speedup {speedup_star:.2f}x below the {SPEEDUP_GATE}x gate on stars"
    )
    _SECTIONS["ab"] = {
        "scale": SCALE,
        "repeats": REPEATS,
        "rows": rows,
        "multi_join": {
            "object_ms": round(object_mj, 3),
            "encoded_ms": round(encoded_mj, 3),
            "speedup": round(speedup_mj, 2),
        },
        "star": {
            "object_ms": round(object_star, 3),
            "encoded_ms": round(encoded_star, 3),
            "speedup": round(speedup_star, 2),
        },
        # Per-stage trace summary of this run: one span per query's A/B
        # measurement, with the measured times as span attributes.
        "trace_summary": trace.summary().splitlines(),
    }


def test_kernel_shard_scaling():
    rows = shard_scaling_rows()
    mode = "smoke" if SMOKE else "full"
    print_experiment(
        f"Shard scaling — LUBM scale {KERNEL_SCALE} ({mode}): "
        f"critical-path time for K in {SHARD_COUNTS}",
        format_table(rows),
    )
    # Parity (concatenation + step accounting) is asserted per row inside
    # shard_scaling_rows; the timing columns are informational — shard
    # speedup depends on how evenly the depth-0 frontier splits.
    _SECTIONS["sharding"] = {
        "scale": KERNEL_SCALE,
        "repeats": REPEATS,
        "shard_counts": list(SHARD_COUNTS),
        "rows": rows,
    }

    if not SMOKE and all(key in _SECTIONS for key in ("ab", "sharding")):
        payload = {
            "benchmark": "bench_kernel",
            "dataset": "LUBM",
            "ab": _SECTIONS["ab"],
            "sharding": _SECTIONS["sharding"],
        }
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {RESULTS_PATH}")
