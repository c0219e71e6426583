"""Process-pool backend: unit behavior, worker bootstrap, and determinism.

The process backend's contract is the same as every other backend's —
submission-order results, bit-identical answers and shipment accounting —
plus the new mechanics this suite pins down: picklable ``SiteTask``
descriptors, per-worker site bootstrap from serialized fragments, pool
rebinding when the cluster changes, and inline execution of single-task
batches.
"""

import os
import pickle

import pytest

from repro.bench import stage_shipment_snapshot as snapshot
from repro.core import GStoreDEngine
from repro.core.site_tasks import TASK_LOCAL_EVAL, local_eval_tasks
from repro.datasets import get_dataset
from repro.exec import (
    ProcessPoolBackend,
    SerialBackend,
    SiteTask,
    WorkerBootstrap,
    execute_site_task,
    make_backend,
    worker_is_initialized,
)
from repro.exec.worker import build_sites

#: The worker counts the acceptance contract names for the process path.
WORKER_COUNTS = (1, 2, 8)

#: Explicitly serial, so the reference stays the reference even when the
#: suite runs under REPRO_EXECUTOR=processes (the CI matrix leg).
SERIAL = SerialBackend()


def run(cluster, query, backend):
    cluster.reset_network()
    engine = GStoreDEngine(cluster, backend=backend)
    try:
        return engine.execute(query)
    finally:
        engine.close()


def sorted_rows(results):
    return sorted(sorted(row.items()) for row in results.to_table())


# Module-level on purpose: ProcessPoolExecutor must pickle it by reference.
def _square(x):
    return x * x


def _pid_of(_):
    return os.getpid()


class TestProcessPoolBackendUnit:
    def test_maps_in_submission_order(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            assert backend.map(_square, [3, 1, 2]) == [9, 1, 4]
            assert backend.name == "processes"

    def test_single_item_runs_inline(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            assert backend.map(_pid_of, ["x"]) == [os.getpid()]

    def test_multi_item_batches_leave_the_coordinator_process(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            pids = set(backend.map(_pid_of, range(4)))
        assert pids  # ran somewhere
        assert os.getpid() not in pids  # ...and that somewhere was a worker

    def test_rejects_invalid_worker_counts(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_workers=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_workers=-1)

    def test_usable_after_close(self):
        backend = ProcessPoolBackend(max_workers=2)
        assert backend.map(_square, [1, 2]) == [1, 4]
        backend.close()
        backend.close()  # idempotent
        assert backend.map(_square, [3, 4]) == [9, 16]
        backend.close()

    def test_make_backend_builds_processes(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "processes")
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        backend = make_backend()
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 3
        backend.close()


class TestSiteTaskDescriptors:
    def test_descriptors_and_results_are_picklable(self, example_cluster, example_query_obj):
        tasks = local_eval_tasks(example_cluster.site_ids, example_query_obj)
        rebuilt = pickle.loads(pickle.dumps(tasks))
        assert [task.site_id for task in rebuilt] == sorted(example_cluster.site_ids)
        assert all(task.stage == TASK_LOCAL_EVAL for task in rebuilt)
        result = execute_site_task(rebuilt[0], example_cluster.site(rebuilt[0].site_id))
        assert pickle.loads(pickle.dumps(result)).site_id == result.site_id
        assert result.elapsed_s >= 0.0

    def test_unknown_stage_is_a_lookup_error(self, example_cluster):
        with pytest.raises(LookupError, match="no site task registered"):
            execute_site_task(SiteTask(0, "no-such-stage"), example_cluster.site(0))

    def test_coordinator_process_is_not_a_worker(self):
        # The suite's coordinator process must never see a bootstrap
        # registry: tasks without an explicit site are workers-only.
        assert not worker_is_initialized()
        with pytest.raises(RuntimeError, match="bootstrapped"):
            execute_site_task(SiteTask(0, TASK_LOCAL_EVAL))


class TestWorkerBootstrap:
    def test_bootstrap_round_trips_fragments(self, example_cluster):
        bootstrap = WorkerBootstrap.from_cluster(example_cluster)
        rebuilt = build_sites(pickle.loads(pickle.dumps(bootstrap)))
        assert sorted(rebuilt) == sorted(example_cluster.site_ids)
        for site_id, site in rebuilt.items():
            original = example_cluster.site(site_id)
            assert site.fragment.internal_vertices == original.fragment.internal_vertices
            assert site.fragment.crossing_edges == original.fragment.crossing_edges
            assert site.planner is not None  # planner on by default

    def test_bootstrap_respects_planner_options(self, example_cluster):
        bootstrap = WorkerBootstrap.from_cluster(example_cluster, use_planner=False)
        rebuilt = build_sites(bootstrap)
        assert all(site.planner is None for site in rebuilt.values())

    def test_graph_statistics_through_the_process_pool(self, example_cluster):
        reference = example_cluster.graph_statistics(SerialBackend())
        with ProcessPoolBackend(max_workers=2) as backend:
            pooled = example_cluster.graph_statistics(backend)
        assert pooled.summary() == reference.summary()

    def test_default_options_share_one_pool_binding(self, example_cluster, example_query_obj):
        # graph_statistics passes no site options and a default engine passes
        # the default planner options; alternating between them must NOT
        # rebuild the pool (options normalize to the same binding).
        with ProcessPoolBackend(max_workers=2) as backend:
            example_cluster.graph_statistics(backend)
            pool = backend._pool
            assert pool is not None
            engine = GStoreDEngine(example_cluster, backend=backend)
            engine.execute(example_query_obj)
            engine.close()
            assert backend._pool is pool
            example_cluster.graph_statistics(backend)
            assert backend._pool is pool


@pytest.mark.parametrize("query_name", ["LQ1", "LQ7", "LQ2"])  # complex x2 + star
def test_worker_count_does_not_change_results_or_accounting(lubm_cluster, query_name):
    query = get_dataset("LUBM").queries()[query_name]
    run(lubm_cluster, query, SERIAL)  # warm the plan caches
    reference = run(lubm_cluster, query, SERIAL)
    reference_rows = sorted_rows(reference.results)
    for workers in WORKER_COUNTS:
        with ProcessPoolBackend(workers) as backend:
            result = run(lubm_cluster, query, backend)
        assert sorted_rows(result.results) == reference_rows
        assert result.results.same_solutions(reference.results)
        assert snapshot(result) == snapshot(reference)
        assert result.statistics.extra["executor"] == "processes"
        assert result.statistics.extra["max_workers"] == workers


def test_shared_backend_is_reused_and_survives_engine_close(lubm_cluster):
    query = get_dataset("LUBM").queries()["LQ6"]
    reference = run(lubm_cluster, query, SERIAL)
    backend = ProcessPoolBackend(max_workers=2)
    try:
        first = run(lubm_cluster, query, backend)
        # engine.close() must NOT have torn the shared pool down: the second
        # run reuses the already-bootstrapped workers.
        pool_before = backend._pool
        assert pool_before is not None
        second = run(lubm_cluster, query, backend)
        assert backend._pool is pool_before
        assert first.results.same_solutions(reference.results)
        assert second.results.same_solutions(reference.results)
        assert snapshot(first) == snapshot(reference)
        assert snapshot(second) == snapshot(reference)
    finally:
        backend.close()


def test_pool_rebinds_when_the_cluster_changes(lubm_cluster, example_cluster, example_query_obj):
    lubm_query = get_dataset("LUBM").queries()["LQ1"]
    backend = ProcessPoolBackend(max_workers=2)
    try:
        lubm_result = run(lubm_cluster, lubm_query, backend)
        assert len(lubm_result.results) > 0
        # Same backend, different cluster: the pool must rebind to the new
        # cluster's fragments and still match its serial reference.
        example_serial = run(example_cluster, example_query_obj, SERIAL)
        example_result = run(example_cluster, example_query_obj, backend)
        assert example_result.results.same_solutions(example_serial.results)
        assert snapshot(example_result) == snapshot(example_serial)
    finally:
        backend.close()
