"""Correctness and behaviour tests for the simulated comparison systems."""

import pytest

from repro.baselines import BASELINE_ENGINES, DreamEngine, S2RDFEngine, S2XEngine, make_baseline
from repro.datasets import btc, lubm, yago
from repro.distributed import build_cluster
from repro.partition import HashPartitioner
from repro.store import evaluate_centralized


@pytest.fixture(scope="module")
def lubm_env():
    graph = lubm.generate(scale=1)
    cluster = build_cluster(HashPartitioner(4).partition(graph))
    return graph, cluster, lubm.queries()


class TestRegistry:
    def test_all_fig12_systems_available(self):
        assert set(BASELINE_ENGINES) == {"DREAM", "S2RDF", "CliqueSquare", "S2X"}

    def test_make_baseline(self, lubm_env):
        _, cluster, _ = lubm_env
        assert isinstance(make_baseline("DREAM", cluster), DreamEngine)

    def test_unknown_baseline_raises(self, lubm_env):
        _, cluster, _ = lubm_env
        with pytest.raises(KeyError):
            make_baseline("nonexistent", cluster)


@pytest.mark.parametrize("baseline_name", sorted(BASELINE_ENGINES))
class TestBaselineCorrectness:
    @pytest.mark.parametrize("query_name", ["LQ1", "LQ2", "LQ6"])
    def test_lubm_queries_match_centralized(self, lubm_env, baseline_name, query_name):
        graph, cluster, queries = lubm_env
        query = queries[query_name]
        central = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        engine = make_baseline(baseline_name, cluster)
        result = engine.execute(query, query_name=query_name, dataset="LUBM")
        assert result.results.same_solutions(central)

    def test_statistics_are_populated(self, lubm_env, baseline_name):
        graph, cluster, queries = lubm_env
        engine = make_baseline(baseline_name, cluster)
        result = engine.execute(queries["LQ6"], query_name="LQ6", dataset="LUBM")
        stats = result.statistics
        assert stats.engine == baseline_name
        assert stats.query_name == "LQ6"
        assert stats.total_time_ms >= 0
        assert len(stats.stages) >= 2
        assert stats.num_results == len(result.results)


class TestDreamBehaviour:
    def test_replication_means_no_partial_matches_but_shipped_results(self, lubm_env):
        graph, cluster, queries = lubm_env
        result = DreamEngine(cluster).execute(queries["LQ7"], query_name="LQ7")
        stats = result.statistics
        assert stats.counter("subquery_evaluation", "star_subqueries") >= 2
        assert stats.find_stage("subquery_evaluation").shipped_bytes > 0

    def test_star_query_is_single_subquery(self, lubm_env):
        graph, cluster, queries = lubm_env
        result = DreamEngine(cluster).execute(queries["LQ2"], query_name="LQ2")
        assert result.statistics.counter("subquery_evaluation", "star_subqueries") == 1


class TestCloudBehaviour:
    def test_s2rdf_scans_every_pattern(self, lubm_env):
        graph, cluster, queries = lubm_env
        result = S2RDFEngine(cluster).execute(queries["LQ7"], query_name="LQ7")
        stats = result.statistics
        assert stats.counter("pattern_scan", "patterns") == len(queries["LQ7"].bgp)
        assert stats.counter("pattern_scan", "scanned_rows") > 0
        assert stats.find_stage("pattern_scan").shipped_bytes > 0

    def test_s2x_runs_supersteps(self, lubm_env):
        graph, cluster, queries = lubm_env
        result = S2XEngine(cluster).execute(queries["LQ1"], query_name="LQ1")
        stats = result.statistics
        assert stats.counter("supersteps", "supersteps") >= 1
        assert stats.counter("supersteps", "surviving_candidates") <= stats.counter(
            "pattern_scan", "initial_candidates"
        )

    @pytest.mark.parametrize("dataset_module, query_name", [(yago, "YQ4"), (btc, "BQ5")])
    def test_other_datasets(self, dataset_module, query_name):
        graph = dataset_module.generate(scale=1)
        cluster = build_cluster(HashPartitioner(3).partition(graph))
        query = dataset_module.queries()[query_name]
        central = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        for baseline_name in BASELINE_ENGINES:
            result = make_baseline(baseline_name, cluster).execute(query, query_name=query_name)
            assert result.results.same_solutions(central)
