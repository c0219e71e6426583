"""Characterization of the gStoreD execution spine (written before refactoring it).

Every case runs one query through ``make_engine("gstored", ...)`` over a
*fresh* cluster (so the plan-cache counters start from zero) and reduces the
run to a fingerprint of everything the engine promises to keep bit-identical:

* the run's ordered message log ``(source, destination, kind, stage, bytes)``,
  read from a ledger opened around it;
* the stage-name order and, per stage, shipped bytes, messages, the modelled
  network/platform time, which sites reported a time, whether coordinator
  time was folded in, and every counter key and value in insertion order;
* ``extra`` and ``work`` of the statistics, keys and values in insertion
  order — everything except the wall-clock fields;
* the ``Result.rows()`` sequence;
* the trace's ``(name, category, parent name, sorted attribute keys)`` tree.

The fingerprints of ``engine_spine_golden.json`` were recorded from the
serial, untraced run at the commit *before* the stage-runner refactor; the
test then requires the traced and untraced variants of each case to
reproduce them.  ``rows`` are compared as a sequence
between the variants of one process and as a sorted list against the golden
file, because the row order of a query is only defined per
``PYTHONHASHSEED``.

Regenerate (only when a change is *meant* to move a fingerprint) with
``PYTHONPATH=src python tests/core/test_engine_spine.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import make_engine
from repro.core import ABLATION_CONFIGS, EngineConfig
from repro.datasets import get_dataset, lubm
from repro.datasets.paper_example import build_example_partitioning, example_query
from repro.distributed import build_cluster
from repro.obs import Trace
from repro.partition import HashPartitioner

GOLDEN_PATH = Path(__file__).with_name("engine_spine_golden.json")

FULL = EngineConfig.full()

#: case id -> (workload, query name, engine configuration)
CASES = {
    "paper": ("paper", "example", FULL),
    "LQ7": ("lubm", "LQ7", FULL),
    "LQ2": ("lubm", "LQ2", FULL),
    # LQ1 under all four Fig. 9 configurations (the last one is gStoreD-Full).
    **{f"LQ1-{config.label}": ("lubm", "LQ1", config) for config in ABLATION_CONFIGS},
}

VARIANTS = (False, True)  # untraced, traced


def load_workloads():
    """workload name -> (partitioned graph, named queries); clusters are built per run."""
    return {
        "paper": (build_example_partitioning(), {"example": example_query()}),
        "lubm": (
            HashPartitioner(4).partition(lubm.generate(scale=1)),
            get_dataset("LUBM").queries(),
        ),
    }


workloads = pytest.fixture(scope="module")(load_workloads)


def fingerprint(workloads, case_id, traced):
    """Run one case on a fresh cluster; the fingerprint as plain JSON data."""
    workload, query_name, config = CASES[case_id]
    partitioned, queries = workloads[workload]
    cluster = build_cluster(partitioned)
    trace = Trace("query") if traced else None
    with make_engine("gstored", cluster, config=config) as engine, cluster.bus.ledger() as ledger:
        result = engine.execute(
            queries[query_name], query_name=query_name, dataset=workload, trace=trace
        )
    statistics = result.statistics
    spans = []
    if trace is not None:
        trace.finish()
        names = {span.span_id: span.name for span in trace.spans}
        spans = [
            [span.name, span.category, names.get(span.parent_id), sorted(span.attrs)]
            for span in trace.spans
        ]
    return {
        "bus": [
            [m.source, m.destination, m.kind, m.stage, m.size_bytes]
            for m in ledger.messages
        ],
        "stages": [
            {
                "name": stage.name,
                "shipped_bytes": stage.shipped_bytes,
                "messages": stage.messages,
                "network_time_s": stage.network_time_s,
                "platform_time_s": stage.platform_time_s,
                "sites": sorted(stage.site_times_s),
                "coordinator_timed": stage.coordinator_time_s > 0,
                "counters": [[key, value] for key, value in stage.counters.items()],
            }
            for stage in statistics.stages
        ],
        "identity": [
            statistics.query_name, statistics.engine, statistics.dataset,
            statistics.partitioning, statistics.num_results,
        ],
        "extra": [[key, value] for key, value in statistics.extra.items()],
        "work": [[key, value] for key, value in statistics.work.items()],
        "rows": [list(row) for row in result.rows()],
        "trace": spans,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case_id", list(CASES))
def test_spine_fingerprint_matches_the_recorded_one(workloads, golden, case_id):
    expected = golden[case_id]
    row_sequences = []
    for traced in VARIANTS:
        observed = fingerprint(workloads, case_id, traced)
        # Round-trip through JSON so tuples/lists and float text compare the
        # way they were recorded.
        observed = json.loads(json.dumps(observed))
        label = f"{case_id}, traced={traced}"
        row_sequences.append(observed.pop("rows"))
        tree = observed.pop("trace")
        if traced:
            assert tree == expected["trace"], label
        else:
            assert tree == [], label
        for key, value in observed.items():
            assert value == expected[key], f"{label}: {key} moved"
    assert all(rows == row_sequences[0] for rows in row_sequences), case_id
    assert sorted(row_sequences[0]) == expected["sorted_rows"], case_id


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    loaded = load_workloads()
    recorded = {}
    for case_id in CASES:
        untraced = fingerprint(loaded, case_id, traced=False)
        untraced["trace"] = fingerprint(loaded, case_id, traced=True)["trace"]
        untraced["sorted_rows"] = sorted(untraced.pop("rows"))
        recorded[case_id] = untraced
    # One line per (case, field): compact, and a moved fingerprint diffs as one line.
    cases = [
        f'"{case_id}": {{\n'
        + ",\n".join(f' "{key}": {json.dumps(value)}' for key, value in sorted(fields.items()))
        + "\n}"
        for case_id, fields in recorded.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(cases) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(recorded)} cases)")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
