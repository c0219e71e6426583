"""End-to-end + per-layer benchmark of the repo (see README.md beside this file).

    python3 benchmarks/e2e/run.py --workload star --seed 1 --seconds 15 --trace 0

runs one workload against the public API, checks every answer, prints every
metric by name with its unit and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` replays each
query stage by stage under benchmark-side spans and reports the per-layer
metrics.  Without ``--workload`` all four run.  ``--out FILE`` also writes the
full result (environment, sample counts, per-query rows) as JSON, and the raw
spans of a traced run beside it as ``FILE`` with the suffix ``.spans.json``.

This process only orchestrates: the measuring happens in worker processes
(``--worker``), each started with a fixed ``PYTHONHASHSEED``.  Hash order
decides the layout of every dict and set of terms, and that alone moves a
query's latency by up to a fifth and ``partition()`` by 1.6x, so an
end-to-end run sets up and measures in three fresh processes, one per entry
of ``HASH_SEEDS``, and reports each metric as the median of the three:
``setup_s`` is the median of three cold set-ups, no timing rests on one lucky
layout or one slow stretch of the host, and counts repeat exactly.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from common import SRC, load_contract, percentile, timed

#: ``PYTHONHASHSEED`` of each worker process behind one end-to-end run (the
#: traced run uses the first).  Part of the benchmark, not of ``--seed``: every
#: run measures the same three layouts.
HASH_SEEDS = (1, 2, 3)
TRACED_PASSES = 8
SMOKE_SECONDS = 1.0
SMOKE_TRACED_PASSES = 2


# ----------------------------------------------------------------------
# Worker: measures, prints one JSON document
# ----------------------------------------------------------------------
def worker(arguments: argparse.Namespace) -> Dict[str, object]:
    """Set one workload up once and measure it; everything is torn down on the way out.

    ``setup_s`` runs from here — before the package is even imported — to the
    end of the warm-up: what a cold process pays before its first timed query.
    """
    if not SRC.is_dir():
        # Measure this checkout's package or nothing — never an installed copy.
        raise SystemExit(f"no package to measure: {SRC} is missing")
    sys.path.insert(0, str(SRC))
    workloads, import_ms = timed(lambda: importlib.import_module("workloads"))
    workload = workloads.WORKLOADS[arguments.workload](arguments.seed, arguments.smoke)
    try:
        if arguments.trace:
            from layers import traced_run

            passes = SMOKE_TRACED_PASSES if arguments.smoke else TRACED_PASSES
            return {"env": environment(), **traced_run(workload, passes)}
        setup_s = import_ms / 1e3 + workload.setup()
        workload.prepare()
        samples, wall_s = workload.timed_phase(arguments.seconds)
        return {
            "env": environment(),
            "setup_s": setup_s,
            "wall_s": wall_s,
            "rss_mb": workload.peak_rss_mb(),
            "oracle_stable": workload.oracle_stable(),
            "samples": [
                [*s.pass_id, s.name, s.kind, s.ms, s.ok, s.modelled_ms, s.shipped_bytes, s.host]
                for s in samples
            ],
        }
    except workloads.ServerStartError as error:
        # Nothing could be sent: every operation of a pass counts as failed.
        return {"start_failed": str(error), "planned": len(workload.pass_ops(0)) * workload.CLIENTS}
    finally:
        workload.teardown()


def environment() -> Dict[str, object]:
    """What the numbers were measured on, and the defaults the sessions resolved."""
    from repro.store import resolve_kernel

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "kernel": resolve_kernel(None),
        "REPRO_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }


# ----------------------------------------------------------------------
# Parent: spawns workers, computes and reports the metrics
# ----------------------------------------------------------------------
def spawn(arguments: argparse.Namespace, name: str, index: int, seconds: float) -> Dict[str, object]:
    """Run one worker to its end; its standard output is its JSON document."""
    command = [
        sys.executable, __file__, "--worker", "--workload", name, "--seed", str(arguments.seed),
        "--seconds", str(seconds), "--trace", str(arguments.trace),
    ]  # fmt: skip
    if arguments.smoke:
        command.append("--smoke")
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": str(HASH_SEEDS[index])},
    )
    try:
        output, _ = process.communicate()
    finally:
        if process.poll() is None:
            # Interrupted: let the worker tear its workload down, then go.
            process.terminate()
            process.wait()
    if process.returncode:
        raise RuntimeError(f"worker {index} of {name} exited with {process.returncode}")
    return json.loads(output)


def worker_metrics(part: Dict[str, object]) -> Dict[str, object]:
    """The end-to-end metrics of one worker's timed phase, and the counts behind them."""
    fields = ("client", "index", "name", "kind", "ms", "ok", "modelled_ms", "shipped_bytes", "host")
    samples = [dict(zip(fields, row)) for row in part["samples"]]
    good = [sample for sample in samples if sample["ok"]]
    passes: Dict[tuple, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    by_name: Dict[str, List[float]] = defaultdict(list)
    for sample in good:
        by_name[sample["name"]].append(sample["ms"])
        if sample["kind"] == "read":
            totals = passes[(sample["client"], sample["index"])]
            for key in ("ms", "modelled_ms", "shipped_bytes"):
                totals[key] += sample[key]
    pass_ms = [totals["ms"] for totals in passes.values()]
    shipped = sorted(int(totals["shipped_bytes"]) for totals in passes.values())
    per_operation = {name: statistics.median(found) for name, found in sorted(by_name.items())}
    latencies = [sample["ms"] for sample in good]
    updates = [sample["ms"] for sample in good if sample["kind"] == "update"]
    return {
        "values": {
            "setup_s": part["setup_s"],
            "pass_p50_ms": statistics.median(pass_ms),
            "geomean_ms": statistics.geometric_mean(per_operation.values()),
            "modelled_pass_ms": statistics.median(t["modelled_ms"] for t in passes.values()),
            "shipped_bytes_per_pass": shipped[(len(shipped) - 1) // 2],
            "throughput_qps": len(good) / part["wall_s"],
            "peak_rss_mb": part["rss_mb"],
        },
        # Reported, not gated: tails need more passes than a run can hold, and
        # with an even number of kinds the pooled median sits between two modes.
        "detail": {
            # Reference speed over the host's: times were multiplied by this.
            "host_factor": statistics.median(sample["host"] for sample in samples),
            "pass_p90_ms": percentile(pass_ms, 90),
            "request_p50_ms": statistics.median(latencies),
            "request_p95_ms": percentile(latencies, 95),
            **(
                {"update_p50_ms": statistics.median(updates), "update_p90_ms": percentile(updates, 90)}
                if updates
                else {}
            ),
            **{f"p50_ms.{name}": value for name, value in per_operation.items()},
        },
        "counts": {"passes": len(passes), "operations": len(samples), "failed": len(samples) - len(good)},
    }


def end_to_end(parts: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Every metric per worker, then the median over the workers.

    One worker is one hash layout and one stretch of wall time; the median of
    three shrugs off a layout that is an outlier and a stretch in which the
    host was slow.
    """
    each = [worker_metrics(part) for part in parts]

    def across(section: str) -> Dict[str, float]:
        return {key: statistics.median(one[section][key] for one in each) for key in each[0][section]}

    counts = {key: sum(one["counts"][key] for one in each) for key in each[0]["counts"]}
    return {
        "env": parts[0]["env"],
        "values": across("values"),
        "detail": {"workers": len(parts), **counts, **across("detail")},
        "per_worker": [one["values"] for one in each],
        "attempted": counts["operations"],
        "failed": counts["failed"],
        "problems": [
            f"worker {worker_id}: the oracle changed during the run"
            for worker_id, part in enumerate(parts)
            if not part["oracle_stable"]
        ],
    }


def measure(arguments: argparse.Namespace, name: str) -> Dict[str, object]:
    """One workload in the requested mode, as an outcome ready to report."""
    if arguments.trace:
        parts = [spawn(arguments, name, 0, arguments.seconds)]
    else:
        workers = 1 if arguments.smoke else len(HASH_SEEDS)
        seconds = SMOKE_SECONDS if arguments.smoke else arguments.seconds / workers
        parts = [spawn(arguments, name, index, seconds) for index in range(workers)]
    failures = [part for part in parts if "start_failed" in part]
    if failures:
        planned = failures[0]["planned"]
        problems = [part["start_failed"] for part in failures]
        return {"values": {}, "attempted": planned, "failed": planned, "problems": problems}
    return parts[0] if arguments.trace else end_to_end(parts)


def report(name: str, declared: Sequence[Dict[str, object]], outcome: Dict[str, object]) -> Dict[str, object]:
    """Print the table of the ``declared`` metrics; return the driver's result object."""
    metrics = {
        metric["name"]: {"value": outcome["values"].get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in declared
    }
    print(f"== {name} ==")
    for metric, entry in metrics.items():
        print(f"{metric:58s} {entry['value']:16.4f} {entry['unit']}")
    for key, value in outcome.get("detail", {}).items():
        print(f"  {key}: {value}")
    for query, row in outcome.get("per_query", {}).items():
        print(
            f"  {query}: untraced {row['control_ms']:.3f} ms, replay {row['replay_ms']:.3f} ms, "
            f"unattributed_share {row['unattributed_share']:.4f}"
        )
    for problem in outcome["problems"]:
        print(f"PROBLEM: {problem}")
    return {
        "correct": outcome["failed"] == 0 and not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=1, help="seed of the workload's inputs")
    parser.add_argument(
        "--seconds", type=float, default=contract["run_seconds"],
        help="length of the timed phase (tracing off), shared between the workers",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true", help="tiny scales and counts")
    parser.add_argument("--out", help="write the full result here as JSON")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)

    # A terminated run still unwinds: the parent stops its worker, the worker
    # tears down its workload (the server child, the store file).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if arguments.worker:
        json.dump(worker(arguments), sys.stdout)
        return 0

    mode = "traced" if arguments.trace else "end_to_end"
    workloads: Dict[str, object] = {}
    spans: Dict[str, object] = {}
    env = None
    status = 0
    for name in [arguments.workload] if arguments.workload else names:
        outcome = measure(arguments, name)
        env = outcome.pop("env", env)
        if "spans" in outcome:
            spans[name] = outcome.pop("spans")
        result = report(name, contract["per_layer" if arguments.trace else "end_to_end"], outcome)
        workloads[name] = {mode: {**outcome, **result}}
        # The last line of a single-workload run is the driver's result object.
        print(json.dumps(result))
        status |= 0 if result["correct"] else 1
    if arguments.out:
        out = Path(arguments.out)
        document = {
            "env": env,
            "seed": arguments.seed,
            "seconds": arguments.seconds,
            "smoke": arguments.smoke,
            "workloads": workloads,
        }
        out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        if spans:
            # Raw evidence, too bulky to sit in the result itself.
            out.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
