"""Unit tests for partitioning persistence (save/load assignments and workspaces).

Every partitioner strategy must survive ``assignment_to_dict`` → load exactly.
"""

import json

import pytest

from repro.datasets import lubm
from repro.partition import (
    HashPartitioner,
    load_assignment,
    load_partitioning,
    load_workspace,
    make_partitioner,
    save_assignment,
    save_workspace,
)
from repro.partition.serialization import assignment_to_dict

#: Every registered partitioner strategy (the CLI's --strategy choices).
ALL_STRATEGIES = ("hash", "semantic_hash", "metis")


@pytest.fixture(scope="module")
def partitioned():
    return HashPartitioner(4).partition(lubm.generate(scale=1))


@pytest.fixture(scope="module")
def lubm_graph_small():
    return lubm.generate(scale=1)


@pytest.fixture(scope="module", params=ALL_STRATEGIES)
def strategy_partitioned(request, lubm_graph_small):
    """One LUBM partitioning per registered strategy."""
    return make_partitioner(request.param, 4).partition(lubm_graph_small)


class TestEveryStrategyRoundTrips:
    def test_assignment_dict_round_trips(self, strategy_partitioned, tmp_path):
        path = tmp_path / "assignment.json"
        save_assignment(strategy_partitioned, path)
        assert load_assignment(path) == strategy_partitioned.assignment

    def test_rebuilt_partitioning_is_identical(self, strategy_partitioned, tmp_path):
        path = tmp_path / "assignment.json"
        save_assignment(strategy_partitioned, path)
        rebuilt = load_partitioning(strategy_partitioned.graph, path)
        rebuilt.validate()
        assert rebuilt.strategy == strategy_partitioned.strategy
        assert rebuilt.num_fragments == strategy_partitioned.num_fragments
        for original, restored in zip(strategy_partitioned, rebuilt):
            assert restored.internal_vertices == original.internal_vertices
            assert restored.internal_edges == original.internal_edges
            assert restored.crossing_edges == original.crossing_edges
            assert restored.extended_vertices == original.extended_vertices


class TestAssignmentRoundTrip:
    def test_dict_representation(self, partitioned):
        payload = assignment_to_dict(partitioned)
        assert payload["strategy"] == "hash"
        assert payload["num_fragments"] == 4
        assert len(payload["assignment"]) == len(partitioned.graph.vertices)

    def test_save_and_load_assignment(self, partitioned, tmp_path):
        path = tmp_path / "assignment.json"
        save_assignment(partitioned, path)
        loaded = load_assignment(path)
        assert loaded == partitioned.assignment

    def test_load_partitioning_rebuilds_fragments(self, partitioned, tmp_path):
        path = tmp_path / "assignment.json"
        save_assignment(partitioned, path)
        rebuilt = load_partitioning(partitioned.graph, path)
        rebuilt.validate()
        assert rebuilt.num_fragments == partitioned.num_fragments
        assert rebuilt.crossing_edges == partitioned.crossing_edges
        assert rebuilt.strategy == "hash"

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"something": "else"}), encoding="utf-8")
        with pytest.raises(ValueError):
            load_assignment(path)


class TestWorkspaceRoundTrip:
    def test_save_and_load_workspace(self, partitioned, tmp_path):
        paths = save_workspace(partitioned, tmp_path / "workspace")
        assert paths["graph"].exists()
        assert paths["assignment"].exists()
        restored = load_workspace(tmp_path / "workspace")
        restored.validate()
        assert restored.graph == partitioned.graph
        assert restored.assignment == partitioned.assignment

    def test_workspace_queries_identically(self, partitioned, tmp_path):
        from repro.core import GStoreDEngine
        from repro.distributed import build_cluster

        save_workspace(partitioned, tmp_path / "ws")
        restored = load_workspace(tmp_path / "ws")
        query = lubm.queries()["LQ6"]
        original = GStoreDEngine(build_cluster(partitioned)).execute(query)
        reloaded = GStoreDEngine(build_cluster(restored)).execute(query)
        assert original.results.same_solutions(reloaded.results)
