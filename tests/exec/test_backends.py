"""Unit tests for site tasks, the per-site fan-out backend and its option resolver."""

import pickle

import pytest

from repro.core.site_tasks import (
    TASK_LOCAL_EVAL,
    candidate_vector_tasks,
    local_eval_tasks,
    partial_eval_tasks,
    run_local_eval,
)
from repro.exec import OptionError, SerialBackend, SiteTask, make_backend, run_site_task
from repro.sparql.query_graph import QueryGraph


def graph_statistics(site, payload):
    """A module-level handler: the site's planner statistics."""
    return site.graph_statistics()


class TestSiteTasks:
    def test_descriptors_and_results_are_picklable(self, example_cluster, example_query_obj):
        tasks = local_eval_tasks(example_cluster.site_ids, example_query_obj)
        rebuilt = pickle.loads(pickle.dumps(tasks))
        assert [task.site_id for task in rebuilt] == sorted(example_cluster.site_ids)
        assert all(task.stage == TASK_LOCAL_EVAL for task in rebuilt)
        assert all(task.handler is run_local_eval for task in rebuilt)
        result = run_site_task(rebuilt[0], example_cluster.site(rebuilt[0].site_id))
        assert pickle.loads(pickle.dumps(result)).site_id == result.site_id
        assert result.elapsed_s >= 0.0

    def test_an_unpickled_task_runs_its_handler(self, example_cluster, example_query_obj):
        """The handler rides on the task by reference: after a pickle round
        trip every builder's task runs the same handler to the same value."""
        query_graph = QueryGraph(example_query_obj.bgp)
        batches = [
            local_eval_tasks(example_cluster.site_ids, example_query_obj),
            candidate_vector_tasks(example_cluster.site_ids, query_graph, 64),
            partial_eval_tasks(
                example_cluster.site_ids, example_query_obj, query_graph, None, None, False
            ),
        ]
        for task in (task for batch in batches for task in batch):
            rebuilt = pickle.loads(pickle.dumps(task))
            assert rebuilt.handler is task.handler
            site = example_cluster.site(task.site_id)
            assert run_site_task(rebuilt, site).value == run_site_task(task, site).value


class TestSerialBackend:
    def test_maps_in_order(self):
        backend = SerialBackend()
        assert backend.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]
        assert backend.name == "serial"

    def test_propagates_exceptions(self):
        def boom(x):
            raise RuntimeError(f"task {x}")

        with pytest.raises(RuntimeError, match="task 1"):
            SerialBackend().map(boom, [1, 2])

    def test_empty_batch(self):
        assert SerialBackend().map(lambda x: x, []) == []

    def test_site_tasks_come_back_in_submission_order(self, example_cluster):
        site_ids = sorted(example_cluster.site_ids, reverse=True)
        tasks = [SiteTask(site_id, "graph_statistics", graph_statistics) for site_id in site_ids]
        results = SerialBackend().map_site_tasks(tasks, example_cluster)
        assert [result.site_id for result in results] == site_ids
        for result in results:
            assert result.value is example_cluster.site(result.site_id).graph_statistics()


class TestMakeBackend:
    @pytest.mark.parametrize("executor", [None, "serial"])
    def test_serial_is_the_only_choice(self, executor):
        assert isinstance(make_backend(executor), SerialBackend)

    @pytest.mark.parametrize("executor", ["threads", "processes", "mpi"])
    def test_other_names_are_rejected_by_name(self, executor):
        with pytest.raises(OptionError, match=f"unknown executor {executor!r}") as excinfo:
            make_backend(executor)
        assert isinstance(excinfo.value, ValueError)
        assert excinfo.value.options == {"executor": executor}
