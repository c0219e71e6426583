"""Smoke test of the benchmark itself (not part of the tier-1 ``testpaths``).

    python -m pytest benchmarks/e2e/test_smoke.py -q

Runs all four workloads with ``--smoke`` (tiny scales, one-second phases), once
end to end and once traced, and checks that what they print is what
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]


def run(*arguments: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *arguments]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def test_contract_names_and_bounds():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert all(len(entry["why"]) <= 200 for entry in CONTRACT["workloads"])
    bounds = {entry["name"]: entry["bound"] for entry in CONTRACT["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace, declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_reports_what_the_contract_declares(tmp_path, trace, declared):
    out = tmp_path / "result.json"
    finished = run("--smoke", "--seed", "1", "--trace", trace, "--out", str(out))
    assert finished.returncode == 0, finished.stdout + finished.stderr
    results = result_lines(finished.stdout)
    assert len(results) == len(WORKLOADS)
    units = {entry["name"]: entry["unit"] for entry in CONTRACT[declared]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} == units
    document = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(document["workloads"]) == sorted(WORKLOADS)
    assert {"python", "numpy", "nproc", "kernel"} <= set(document["env"])
    values = {
        name: [modes[mode]["metrics"][name]["value"] for modes in document["workloads"].values() for mode in modes]
        for name in units
    }
    if declared == "end_to_end":
        # An end-to-end metric is never 0, on any workload.
        assert all(value > 0 for found in values.values() for value in found), values
    else:
        # Every layer row is filled by at least one workload (no dead names);
        # two connections cannot fill the admission queue, so nothing is rejected.
        assert values.pop("api.serving.rejected") == [0] * len(WORKLOADS)
        assert all(any(value != 0 for value in found) for found in values.values()), values
        traced = {name: modes["traced"] for name, modes in document["workloads"].items()}
        assert all("unattributed_share" in row for t in traced.values() for row in t["per_query"].values())


def test_no_result_without_the_package(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark: non-zero, no result."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e", ignore=shutil.ignore_patterns("__pycache__"))
    finished = run("--workload", "star", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert finished.returncode != 0
    assert not result_lines(finished.stdout)
