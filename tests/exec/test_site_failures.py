"""The failure matrix: break any site's task at any stage, get one typed error.

For every engine configuration of the paper's ablation, every per-site task
it runs, every site and every partitioning of the paper's example graph
(the Fig. 1 assignment and each registered partitioner onto three sites), a
handler that raises on that one site must end ``GStoreDEngine.execute``
with ``SiteTaskError(site_id, stage)`` chained from the handler's
exception.  Nothing is rebuilt or retried: the cluster keeps the very same
``Site`` objects, and the next query on it answers bit for bit — rows in
order and the per-stage shipment fingerprint — as before the failure.
"""

import pytest

from repro.bench import stage_shipment_snapshot as snapshot
from repro.core import EngineConfig, GStoreDEngine, site_tasks
from repro.datasets.paper_example import (
    build_example_graph,
    build_example_partitioning,
    example_query,
)
from repro.distributed import build_cluster
from repro.exec import SiteTaskError
from repro.partition import PARTITIONER_REGISTRY, make_partitioner

SITES = (0, 1, 2)
PARTITIONINGS = ["fig1"] + sorted(PARTITIONER_REGISTRY)

#: task label -> handler attribute of repro.core.site_tasks
HANDLERS = {
    site_tasks.TASK_LOCAL_EVAL: "run_local_eval",
    site_tasks.TASK_CANDIDATE_VECTORS: "run_candidate_vectors",
    site_tasks.TASK_PARTIAL_EVAL: "run_partial_eval",
    site_tasks.TASK_LEC_FEATURES: "run_lec_features",
    site_tasks.TASK_LEC_FILTER: "run_lec_filter",
}

#: configuration -> the per-site tasks its run of the example query fans out
#: to every site (the example query is no star, so local evaluation never runs).
CONFIGS = {
    "basic": (EngineConfig.basic(), (site_tasks.TASK_PARTIAL_EVAL,)),
    "lec_assembly_only": (EngineConfig.lec_assembly_only(), (site_tasks.TASK_PARTIAL_EVAL,)),
    "lec_optimized": (
        EngineConfig.lec_optimized(),
        (
            site_tasks.TASK_PARTIAL_EVAL,
            site_tasks.TASK_LEC_FEATURES,
            site_tasks.TASK_LEC_FILTER,
        ),
    ),
    "full": (
        EngineConfig.full(),
        (
            site_tasks.TASK_CANDIDATE_VECTORS,
            site_tasks.TASK_PARTIAL_EVAL,
            site_tasks.TASK_LEC_FEATURES,
            site_tasks.TASK_LEC_FILTER,
        ),
    ),
}

MATRIX = [
    pytest.param(config, partitioning, site, stage, id=f"{config}-{partitioning}-site{site}-{stage}")
    for config, (_config, stages) in CONFIGS.items()
    for partitioning in PARTITIONINGS
    for site in SITES
    for stage in stages
]


class HandlerBug(Exception):
    """What the broken handler raises."""


def partition(name):
    if name == "fig1":
        return build_example_partitioning()
    return make_partitioner(name, len(SITES)).partition(build_example_graph())


@pytest.fixture(scope="module")
def clusters():
    """partitioning -> a module-local cluster, never the shared fixture ones."""
    return {name: build_cluster(partition(name)) for name in PARTITIONINGS}


def run(cluster, config):
    return GStoreDEngine(cluster, config).execute(example_query())


def fingerprint(result):
    return result.rows(), snapshot(result)


@pytest.fixture(scope="module")
def clean(clusters):
    """(configuration, partitioning) -> the fingerprint of the failure-free run."""
    return {
        (config, name): fingerprint(run(cluster, engine_config))
        for config, (engine_config, _stages) in CONFIGS.items()
        for name, cluster in clusters.items()
    }


def recording_handlers(monkeypatch):
    """Wrap every handler; returns the set of (stage, site_id) pairs that ran."""
    ran = set()
    for stage, name in HANDLERS.items():
        real = getattr(site_tasks, name)

        def recorded(site, payload, real=real, stage=stage):
            ran.add((stage, site.site_id))
            return real(site, payload)

        monkeypatch.setattr(site_tasks, name, recorded)
    return ran


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_each_configuration_fans_out_exactly_its_listed_tasks(
    monkeypatch, clusters, clean, config
):
    """Keeps ``CONFIGS`` honest: the matrix breaks only tasks that really run."""
    engine_config, stages = CONFIGS[config]
    for name, cluster in clusters.items():
        ran = recording_handlers(monkeypatch)
        assert fingerprint(run(cluster, engine_config)) == clean[config, name]
        assert ran == {(stage, site) for stage in stages for site in SITES}, name
        monkeypatch.undo()


def test_every_configuration_answers_the_same_rows(clean):
    rows = {tuple(sorted(rows)) for rows, _snapshot in clean.values()}
    assert len(rows) == 1
    assert len(next(iter(rows))) == 4


@pytest.mark.parametrize("config, partitioning, site, stage", MATRIX)
def test_a_failing_site_task_ends_the_query_and_leaves_the_cluster_as_it_was(
    monkeypatch, clusters, clean, config, partitioning, site, stage
):
    engine_config, _stages = CONFIGS[config]
    cluster = clusters[partitioning]
    sites_before = [cluster.site(site_id) for site_id in SITES]

    raised = HandlerBug(f"site {site} broke")
    real = getattr(site_tasks, HANDLERS[stage])

    def failing(target, payload):
        if target.site_id == site:
            raise raised
        return real(target, payload)

    monkeypatch.setattr(site_tasks, HANDLERS[stage], failing)
    with pytest.raises(SiteTaskError) as excinfo:
        run(cluster, engine_config)
    error = excinfo.value
    assert (error.site_id, error.stage) == (site, stage)
    assert error.__cause__ is raised
    assert str(error) == f"site {site} failed in {stage}: HandlerBug: site {site} broke"

    monkeypatch.undo()
    assert all(cluster.site(site_id) is before for site_id, before in zip(SITES, sites_before))
    assert fingerprint(run(cluster, engine_config)) == clean[config, partitioning]
