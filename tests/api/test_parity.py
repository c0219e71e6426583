"""Registry-wide parity suite.

Two guarantees of the :mod:`repro.api` redesign:

* every registered engine answers the paper-example workload with exactly
  the same sorted rows as :func:`repro.store.evaluate_centralized`;
* for each evaluator, the new API is *bit-identical* to its pre-redesign
  call path — same sorted rows, and same ``shipped_bytes`` / ``messages``
  fingerprint where the engine ships data.
"""

import pytest

import repro
from repro import EngineConfig, GStoreDEngine, parse_query
from repro.api import Result, engine_names, make_engine
from repro.baselines import BASELINE_ENGINES
from repro.datasets.paper_example import build_example_partitioning, example_query
from repro.distributed import build_cluster
from repro.store import evaluate_centralized

#: The paper-example workload: the Fig. 2 query plus a star and a path query
#: over the same graph, exercising the star shortcut and the general
#: pipeline of every engine.
WORKLOAD = {
    "example": example_query(),
    "star": parse_query(
        "PREFIX ex: <http://example.org/> "
        'SELECT ?p ?n WHERE { ?p ex:name ?n . ?p ex:birthDate "1942-12-21" . }'
    ),
    "path": parse_query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p ?l WHERE { ?p ex:mainInterest ?t . ?t ex:label ?l . }"
    ),
}


def centralized_rows(graph, query):
    """The ground-truth sorted rows (distinct-projected like every engine)."""
    raw = evaluate_centralized(graph, query)
    return Result(raw.project(query.effective_projection, distinct=True)).sorted_rows()


@pytest.mark.parametrize("engine_name", engine_names())
def test_every_engine_matches_centralized_on_the_paper_workload(engine_name):
    with repro.open(dataset="paper", engine=engine_name) as session:
        for query_name, query in WORKLOAD.items():
            result = session.query(query, query_name=query_name)
            expected = centralized_rows(session.graph, query)
            assert result.sorted_rows() == expected, (
                f"{engine_name} disagrees on {query_name}"
            )
            assert result.sorted_rows()  # the workload has no empty answers


def shipment_fingerprint(statistics):
    return [(s.name, s.shipped_bytes, s.messages) for s in statistics.stages]


class TestNewApiIsBitIdenticalToTheOldCallPaths:
    def test_gstored_via_session_matches_direct_engine_construction(self):
        query = example_query()
        # Old path: hand-built cluster + GStoreDEngine.
        old_cluster = build_cluster(build_example_partitioning())
        with GStoreDEngine(old_cluster, EngineConfig.full()) as engine:
            old = engine.execute(query, query_name="example")
        # New path: session + registry, over the same Fig. 1 partitioning.
        with repro.open(dataset="paper", partitioner="paper") as session:
            new = session.query(query, query_name="example")
        assert new.sorted_rows() == old.sorted_rows()
        assert shipment_fingerprint(new.statistics) == shipment_fingerprint(old.statistics)

    @pytest.mark.parametrize("report_name", sorted(BASELINE_ENGINES))
    def test_baselines_via_registry_match_direct_construction(self, report_name):
        query = example_query()
        old_cluster = build_cluster(build_example_partitioning())
        old = BASELINE_ENGINES[report_name](old_cluster).execute(query, query_name="example")

        new_cluster = build_cluster(build_example_partitioning())
        with make_engine(report_name, new_cluster) as engine:
            new = engine.execute(query, query_name="example")
        assert new.sorted_rows() == old.sorted_rows()
        assert shipment_fingerprint(new.statistics) == shipment_fingerprint(old.statistics)
        assert new.statistics.engine == old.statistics.engine == report_name

    def test_centralized_engine_matches_evaluate_centralized(self):
        cluster = build_cluster(build_example_partitioning())
        for query in WORKLOAD.values():
            with make_engine("centralized", cluster) as engine:
                new = engine.execute(query)
            assert new.sorted_rows() == centralized_rows(cluster.graph, query)
            assert new.statistics.total_shipment_bytes == 0
