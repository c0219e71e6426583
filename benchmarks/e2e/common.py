"""Shared pieces of the end-to-end benchmark: paths, the contract, statistics.

Nothing here imports :mod:`repro`, so ``compare.py`` and the smoke test can
use it without the package on the path.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC = REPO_ROOT / "src"
QUERIES = HERE / "queries"
CONTRACT = REPO_ROOT / "BENCHMARK.json"

#: Scratch space for store files; inside the checkout, removed when a run ends.
WORK_DIR = REPO_ROOT / ".bench_e2e_work"


#: What :func:`reference_ms` takes on the baseline host at its usual speed.
REFERENCE_MS = 0.16


def reference_ms() -> float:
    """Time a fixed scrap of interpreter work: the host's speed right now.

    The sandbox's CPU speed moves for seconds to minutes at a time (other
    tenants; the steal counter barely shows it; this loop took 0.13 to 0.40 ms
    over one evening), and pure-Python work moves with it: over 40 s of
    ``star`` the median pass latency of 4 s windows varied by 10 %, and by
    0.4 % once every operation was divided by the speed this loop measured
    right before and after it.  Tuples, a dict,
    a set and string building — the work the engine is made of.
    """
    started = time.perf_counter()
    table = {}
    for index in range(600):
        key = ("p%d" % (index % 97), index & 7)
        table[key] = table.get(key, 0) + index
    sum(len(name) for name in {key[0] for key in table})
    return (time.perf_counter() - started) * 1e3


def timed(function):
    """Call ``function``; its result and its time in ms at the reference host speed.

    The host's speed is sampled right before and right after; the measured
    time is multiplied by ``REFERENCE_MS`` over the mean of the two samples.
    Each sample is the median of five loops: this is for single, long calls,
    where one interrupted loop would otherwise spoil the only number there is.
    """
    before = statistics.median(reference_ms() for _ in range(5))
    started = time.perf_counter()
    value = function()
    ms = (time.perf_counter() - started) * 1e3
    after = statistics.median(reference_ms() for _ in range(5))
    return value, ms * REFERENCE_MS / ((before + after) / 2)


def load_contract() -> Dict[str, object]:
    """``BENCHMARK.json``: the names, units, directions and bounds every run reports by."""
    return json.loads(CONTRACT.read_text(encoding="utf-8"))


def load_query(name: str) -> str:
    """SPARQL text of one workload query (``LQ4``/``LQ5`` are templates)."""
    return (QUERIES / f"{name}.sparql").read_text(encoding="utf-8")


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation between ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        value = samples[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def canonical(rows: Iterable[Dict[str, str]]) -> List[Tuple[Tuple[str, str], ...]]:
    """Order-insensitive form of an answer given as ``{variable: N3}`` rows.

    In-process answers (``Result.to_dicts()``) and HTTP answers (the ``rows``
    of the JSON body) both reduce to this, so one oracle checks both.
    """
    return sorted(tuple(sorted(row.items())) for row in rows)
