"""End-to-end integration tests: distributed answers equal centralized answers.

This is the central correctness claim of the whole reproduction: whatever the
partitioning, whatever the optimization level, and whichever comparison
system runs the query, the distributed answer must be exactly the answer the
centralized matcher computes on the unpartitioned graph.
"""

import pytest

from repro.baselines import BASELINE_ENGINES, make_baseline
from repro.core import ABLATION_CONFIGS, EngineConfig, GStoreDEngine
from repro.datasets import btc, lubm, yago
from repro.distributed import build_cluster
from repro.partition import make_partitioner
from repro.store import evaluate_centralized

DATASET_MODULES = {"LUBM": lubm, "YAGO2": yago, "BTC": btc}


def centralized_answer(graph, query):
    return evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)


@pytest.fixture(scope="module")
def environments():
    """One graph + three partitioned clusters per dataset (built once)."""
    envs = {}
    for name, module in DATASET_MODULES.items():
        graph = module.generate(scale=1)
        clusters = {
            strategy: build_cluster(make_partitioner(strategy, 4).partition(graph))
            for strategy in ("hash", "semantic_hash", "metis")
        }
        envs[name] = (graph, clusters, module.queries())
    return envs


class TestGStoreDAgainstCentralized:
    # Every dataset is checked under hash partitioning; the full 3x3 grid is
    # only run for the smallest dataset (YAGO2) to keep the suite fast — the
    # hypothesis property tests cover random partitionings of random graphs.
    @pytest.mark.parametrize(
        "dataset, strategy",
        [
            ("LUBM", "hash"),
            ("BTC", "hash"),
            ("YAGO2", "hash"),
            ("YAGO2", "semantic_hash"),
            ("YAGO2", "metis"),
            ("BTC", "metis"),
            ("LUBM", "semantic_hash"),
        ],
    )
    def test_full_engine_every_query(self, environments, dataset, strategy):
        graph, clusters, queries = environments[dataset]
        cluster = clusters[strategy]
        for name, query in queries.items():
            expected = centralized_answer(graph, query)
            result = GStoreDEngine(cluster, EngineConfig.full()).execute(query, query_name=name)
            assert result.results.same_solutions(expected), f"{dataset}/{strategy}/{name}"

    @pytest.mark.parametrize("config_index", range(len(ABLATION_CONFIGS)))
    def test_every_optimization_level_on_yago_hash(self, environments, config_index):
        graph, clusters, queries = environments["YAGO2"]
        cluster = clusters["hash"]
        config = ABLATION_CONFIGS[config_index]
        for name, query in queries.items():
            expected = centralized_answer(graph, query)
            result = GStoreDEngine(cluster, config).execute(query, query_name=name)
            assert result.results.same_solutions(expected), f"{config.label}/{name}"


class TestBaselinesAgainstCentralized:
    @pytest.mark.parametrize("baseline", sorted(BASELINE_ENGINES))
    def test_baselines_every_query(self, environments, baseline):
        graph, clusters, queries = environments["YAGO2"]
        cluster = clusters["hash"]
        engine = make_baseline(baseline, cluster)
        for name, query in queries.items():
            expected = centralized_answer(graph, query)
            result = engine.execute(query, query_name=name)
            assert result.results.same_solutions(expected), f"{baseline}/YAGO2/{name}"


class TestConsistencyAcrossEngines:
    def test_all_engines_agree_with_each_other(self, environments):
        graph, clusters, queries = environments["YAGO2"]
        cluster = clusters["hash"]
        query = queries["YQ4"]
        answers = []
        for config in ABLATION_CONFIGS:
            answers.append(GStoreDEngine(cluster, config).execute(query).results.as_set())
        for baseline in BASELINE_ENGINES:
            answers.append(make_baseline(baseline, cluster).execute(query).results.as_set())
        assert all(answer == answers[0] for answer in answers)
