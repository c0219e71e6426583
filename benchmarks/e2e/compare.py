"""Compare two sets of benchmark results: the table a performance change pastes.

    python3 benchmarks/e2e/compare.py --base base-*.json --change change-*.json

Each file is what ``run.py --out`` wrote (one workload or several).  For every
workload × end-to-end metric found on both sides it prints both medians with
their quartiles, the ratio with its base, the bound from ``BENCHMARK.json``
and a verdict:

* ``unresolved`` — the run-to-run spread (distance between the quartiles as a
  share of the median) of either side exceeds the bound, so nothing can be said;
* ``regressed``  — the change's median is worse than the base's by more than the bound;
* ``improved``   — it is better by more than either side's own spread (by more
  than the bound when a side has a single run);
* ``unchanged``  — otherwise.

Per-layer counts of traced results (units ``count`` and ``bytes``) are compared
for equality: with the same seed they repeat exactly, so any difference is a
change of the work done, not noise.  Exit status is 1 when any row regressed
or is unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from common import load_contract, quartiles

#: Per-layer units whose values are work counts, not timings.
COUNT_UNITS = ("count", "bytes")

Values = Dict[Tuple[str, str], List[float]]


def collect(paths: Sequence[str], mode: str) -> Values:
    """``(workload, metric) → one value per file`` for ``end_to_end`` or ``traced`` results."""
    values: Values = defaultdict(list)
    for path in paths:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, modes in document["workloads"].items():
            for metric, entry in modes.get(mode, {}).get("metrics", {}).items():
                values[(workload, metric)].append(entry["value"])
    return values


def spread(samples: Sequence[float]) -> float:
    q1, middle, q3 = quartiles(samples)
    return (q3 - q1) / middle if middle else 0.0


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    base_median, change_median = quartiles(base)[1], quartiles(change)[1]
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    worse_by = (change_median - base_median) / base_median if base_median else 0.0
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "regressed"
    noise = max(spread(base), spread(change)) if min(len(base), len(change)) > 1 else bound
    return "improved" if -worse_by > noise else "unchanged"


def _cell(samples: Sequence[float]) -> str:
    q1, middle, q3 = quartiles(samples)
    return f"{middle:.4g} [{q1:.4g}, {q3:.4g}] n={len(samples)}"


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change")
    arguments = parser.parse_args(argv)
    contract = load_contract()

    bad = 0
    base, change = collect(arguments.base, "end_to_end"), collect(arguments.change, "end_to_end")
    print("| workload | metric | base median [q1, q3] | change median [q1, q3] | change/base | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for workload in (entry["name"] for entry in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in change:
                continue
            outcome = verdict(base[key], change[key], metric["better"], metric["bound"])
            bad += outcome in ("regressed", "unresolved")
            base_median, change_median = quartiles(base[key])[1], quartiles(change[key])[1]
            print(
                f"| {workload} | {metric['name']} ({metric['unit']}, {metric['better']} is better) "
                f"| {_cell(base[key])} | {_cell(change[key])} "
                f"| {change_median / base_median:.3f} of {base_median:.4g} "
                f"| {metric['bound']} | {outcome} |"
            )

    base, change = collect(arguments.base, "traced"), collect(arguments.change, "traced")
    counts = [m["name"] for m in contract["per_layer"] if m["unit"] in COUNT_UNITS]
    different = [
        (workload, metric, base[(workload, metric)], change[(workload, metric)])
        for workload, metric in sorted(base)
        if metric in counts
        and (workload, metric) in change
        and set(base[(workload, metric)]) != set(change[(workload, metric)])
    ]
    compared = sum(1 for key in base if key[1] in counts and key in change)
    if compared:
        print(f"\nper-layer counts: {compared} compared, {len(different)} differ")
        for workload, metric, ours, theirs in different:
            print(f"  {workload} {metric}: base {sorted(set(ours))} change {sorted(set(theirs))}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
