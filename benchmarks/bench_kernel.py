"""Kernel A/B — object path vs the encoded kernel.

Not a paper figure: this benchmark validates the `repro.store` matching
kernel the way `bench_planner.py` validates the planner.
**Object-path A/B** (`test_kernel_ab_lubm`) — the seed's object-path
matcher (candidate pools of ``Node`` objects, a vertex signature
prefilter, per-step ``n3()`` sorts, generator-scan edge checks), preserved
in `kernel_reference.py`,
against the encoded kernel.  Gate: encoded ``>= 2x`` on the multi-join
workload (``>= 1x`` in smoke mode).

It asserts **bit-identical behaviour** before timing anything: identical
match *sequences* and identical ``search_steps`` for every query (the
dictionary assigns ids in the old candidate sort order, so the kernel
visits the exact same branches as the object path).

With ``REPRO_KERNEL_SMOKE=1`` it runs at tiny scale with a non-regression
gate — that is the CI bench-smoke job.  Full (non-smoke) runs as a script
(``python benchmarks/bench_kernel.py``) rewrite ``BENCH_kernel.json`` at the
repository root; under pytest the module only checks the gates.  See
`docs/benchmarks.md` and `docs/performance.md`.
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
from repro.store import EncodedGraph, LocalMatcher

#: Smoke mode: tiny scale, non-regression gates only (the CI bench-smoke job).
SMOKE = os.environ.get("REPRO_KERNEL_SMOKE") == "1"
SCALE = 1 if SMOKE else 2
SPEEDUP_GATE = 1.0 if SMOKE else 2.0
REPEATS = 3 if SMOKE else 7
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

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
    graph = lubm.generate(scale=scale)
    queries = lubm.queries()
    encoded = LocalMatcher(EncodedGraph(graph))
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
# The gates, the test, and the script (full script runs write the JSON artifact)
# ----------------------------------------------------------------------
def ab_section(rows, trace):
    """Print ``rows``, hold them to the gates and return the artifact's ``ab`` section."""
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
    section = {
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
    return section


def test_kernel_ab_lubm(benchmark):
    trace = Trace("bench_kernel", scale=SCALE)
    rows = benchmark.pedantic(
        kernel_comparison_rows, kwargs={"trace": trace}, iterations=1, rounds=1
    )
    ab_section(rows, trace)


if __name__ == "__main__":
    trace = Trace("bench_kernel", scale=SCALE)
    section = ab_section(kernel_comparison_rows(trace=trace), trace)
    if not SMOKE:
        payload = {"benchmark": "bench_kernel", "dataset": "LUBM", "ab": section}
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {RESULTS_PATH}")
