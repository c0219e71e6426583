"""Tests for the unified :class:`repro.api.Result` type."""

import pytest

from repro import parse_query
from repro.api import Result
from repro.datasets.paper_example import build_example_graph, example_query
from repro.distributed import QueryStatistics
from repro.sparql.bindings import ResultSet
from repro.store import evaluate_centralized


@pytest.fixture(scope="module")
def example_results():
    graph = build_example_graph()
    query = example_query()
    return evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)


class TestLaziness:
    def test_thunk_is_not_evaluated_until_accessed(self, example_results):
        calls = []

        def produce():
            calls.append(1)
            return example_results

        result = Result(produce)
        assert calls == []
        assert len(result) == 4
        assert calls == [1]

    def test_thunk_is_evaluated_exactly_once(self, example_results):
        calls = []

        def produce():
            calls.append(1)
            return example_results

        result = Result(produce)
        result.rows()
        result.sorted_rows()
        result.to_dicts()
        list(result)
        assert calls == [1]


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
