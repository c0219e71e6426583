"""Tests for the unified :class:`repro.api.Result` type."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import parse_query
from repro.api import Result
from repro.cli import main
from repro.datasets.paper_example import build_example_graph, example_query
from repro.distributed import QueryStatistics
from repro.sparql.bindings import ResultSet
from repro.store import evaluate_centralized


@pytest.fixture(scope="module")
def example_results():
    graph = build_example_graph()
    query = example_query()
    return evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)


class TestRowViews:
    def test_rows_are_sorted_within_each_row(self, example_results):
        for row in Result(example_results).rows():
            assert list(row) == sorted(row)
            assert all("=" in cell for cell in row)

    def test_sorted_rows_is_order_insensitive_canonical_form(self, example_results):
        forward = Result(ResultSet(list(example_results), example_results.variables))
        backward = Result(ResultSet(list(example_results)[::-1], example_results.variables))
        assert forward.rows() != backward.rows()
        assert forward.sorted_rows() == backward.sorted_rows()

    def test_to_dicts_matches_result_set_table(self, example_results):
        assert Result(example_results).to_dicts() == example_results.to_table()


class TestEqualityAndStatistics:
    def test_equality_against_result_and_result_set(self, example_results):
        result = Result(example_results)
        assert result == Result(example_results)
        assert result == example_results
        assert result.same_solutions(example_results)
        assert result.same_solutions(Result(example_results))

    def test_inequality_on_different_solutions(self, example_results):
        other = ResultSet(list(example_results)[:1], example_results.variables)
        assert Result(example_results) != Result(other)

    def test_default_statistics_are_attached(self, example_results):
        result = Result(example_results)
        assert isinstance(result.statistics, QueryStatistics)
        assert result.statistics.total_shipment_bytes == 0



SRC = Path(__file__).resolve().parents[2] / "src"

#: LQ1 of the LUBM benchmark; its projection order is not its name order.
LQ1 = (
    "PREFIX ub: <http://example.org/univ-bench#> "
    "SELECT ?student ?professor ?course WHERE { "
    "?student ub:advisor ?professor . ?professor ub:teacherOf ?course . "
    "?student ub:takesCourse ?course . }"
)

#: Prints, as JSON, the distinct key orders of LQ1's rows in ``to_dicts()``,
#: ``to_table()`` and ``repro query`` (whose solution lines read ``k=v, ...``).
COLUMN_ORDER_SCRIPT = """
import contextlib, io, json, sys
import repro
from repro.cli import main
data, query = sys.argv[1], sys.argv[2]
with repro.open(dataset="lubm", scale=1) as session:
    result = session.query(query)
    dicts = {tuple(row) for row in result.to_dicts()}
    table = {tuple(row) for row in result.results.to_table()}
out = io.StringIO()
with contextlib.redirect_stdout(out):
    main(["query", "--data", data, "--sites", "3", "--query", query, "--limit", "5"])
lines = [line.strip() for line in out.getvalue().splitlines() if line.startswith("  ")]
cli = {tuple(cell.split("=", 1)[0] for cell in line.split(", ")) for line in lines}
print(json.dumps({"dicts": sorted(dicts), "table": sorted(table), "cli": sorted(cli)}))
"""


class TestColumnOrder:
    """A row lists its variables in the query's projection order, whatever the hash seed."""

    def test_rows_follow_the_projection_under_three_hash_seeds(self, tmp_path):
        data = tmp_path / "lubm.nt"
        assert main(["generate", "LUBM", "--scale", "1", "--output", str(data)]) == 0
        projection = ["student", "professor", "course"]
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            completed = subprocess.run(
                [sys.executable, "-c", COLUMN_ORDER_SCRIPT, str(data), LQ1],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert completed.returncode == 0, completed.stderr
            seen = json.loads(completed.stdout.splitlines()[-1])
            assert seen == {"dicts": [projection], "table": [projection], "cli": [projection]}, seed
