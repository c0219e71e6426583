"""The persistence determinism contract, end to end.

A cluster reopened from a store file must be observationally *bit-identical*
to the never-persisted cluster: same answers, same match sequences
(``search_steps``), same shipment fingerprints — including after delta
mutation sequences.
Appends must patch the dictionary encodings in place (``encoded_rebuilds``
stays flat), which is what makes warm restarts cheap.
"""

import pytest

from mirror import Mirror, assert_mirrors
from repro.bench import stage_shipment_snapshot as snapshot
from repro.core import GStoreDEngine
from repro.datasets import get_dataset
from repro.datasets.paper_example import build_example_partitioning, example_query
from repro.distributed import build_cluster
from repro.partition import HashPartitioner
from repro.persist import ClusterStore
from repro.rdf import IRI, Triple
from repro.store.encoding import encoded_rebuilds

EX = "http://example.org/parity/"



def _mutations():
    """A small add/remove sequence touching fresh and existing vertices."""
    paper = build_example_partitioning().graph
    existing = sorted(paper, key=lambda t: t.n3())[0]
    return (
        dict(add=[Triple(IRI(EX + "a"), IRI(EX + "p"), IRI(EX + "b"))]),
        dict(
            add=[
                Triple(IRI(EX + "b"), IRI(EX + "p"), IRI(EX + "c")),
                Triple(IRI(EX + "a"), IRI(EX + "q"), IRI(EX + "c")),
            ],
            remove=[existing],
        ),
        dict(remove=[Triple(IRI(EX + "a"), IRI(EX + "p"), IRI(EX + "b"))]),
    )


def fingerprint(cluster, query):
    result = GStoreDEngine(cluster).execute(query)
    rows = sorted(map(sorted, (row.items() for row in result.results.to_table())))
    return rows, dict(result.statistics.work), snapshot(result)


class TestPaperWorkloadParity:
    def test_reopened_cluster_is_bit_identical(self, tmp_path):
        query = example_query()
        live = build_cluster(build_example_partitioning())
        path = tmp_path / "paper.store"
        ClusterStore.create(path, build_example_partitioning()).close()
        with ClusterStore.open(path) as store:
            reopened = store.load_cluster()
            assert fingerprint(reopened, query) == fingerprint(live, query)

    def test_parity_survives_mutation_sequences(self, tmp_path):
        query = example_query()
        live = build_cluster(build_example_partitioning())
        mirror = Mirror(build_example_partitioning())
        path = tmp_path / "paper.store"
        ClusterStore.create(path, build_example_partitioning()).close()
        store = ClusterStore.open(path)
        mirrored = store.load_cluster()
        for delta in _mutations():
            live.apply(**delta)
            mirrored.apply(**delta)
            mirror.apply(**delta)
            assert fingerprint(mirrored, query) == fingerprint(live, query)
        store.close()
        # A cold process reopening the file replays the journal to the same
        # observable state.
        with ClusterStore.open(path) as cold_store:
            cold = cold_store.load_cluster()
            assert fingerprint(cold, query) == fingerprint(live, query)
            assert_mirrors(cold, mirror)


class TestLubmWorkloadParity:
    @pytest.fixture(scope="class")
    def lubm_partitioned(self):
        return HashPartitioner(4).partition(get_dataset("LUBM").generate(scale=1))

    @pytest.mark.parametrize("query_name", ["LQ1", "LQ2", "LQ7"])
    def test_reopen_parity_on_benchmark_queries(
        self, tmp_path, lubm_partitioned, query_name
    ):
        query = get_dataset("LUBM").queries()[query_name]
        live = build_cluster(lubm_partitioned)
        path = tmp_path / "lubm.store"
        ClusterStore.create(path, lubm_partitioned, dataset="LUBM", scale=1).close()
        with ClusterStore.open(path) as store:
            reopened = store.load_cluster()
            assert fingerprint(reopened, query) == fingerprint(live, query)

    def test_mutated_lubm_cluster_reopens_identically(self, tmp_path, lubm_partitioned):
        query = get_dataset("LUBM").queries()["LQ2"]
        path = tmp_path / "lubm.store"
        ClusterStore.create(path, lubm_partitioned, dataset="LUBM", scale=1).close()
        store = ClusterStore.open(path)
        cluster = store.load_cluster()
        victim = sorted(lubm_partitioned.graph, key=lambda t: t.n3())[3]
        cluster.apply(
            add=[Triple(IRI(EX + "lubm-s"), IRI(EX + "lubm-p"), IRI(EX + "lubm-o"))],
            remove=[victim],
        )
        reference = fingerprint(cluster, query)
        store.close()
        with ClusterStore.open(path) as cold_store:
            cold = cold_store.load_cluster()
            assert fingerprint(cold, query) == reference


class TestAppendsNeverRebuild:
    def test_applying_adds_does_not_rebuild_encodings(self):
        cluster = build_cluster(build_example_partitioning())
        query = example_query()
        # The first apply force-builds any encoding the query alone did not
        # touch (the master graph); after that, appends must be pure patches.
        cluster.apply(add=[Triple(IRI(EX + "w"), IRI(EX + "p"), IRI(EX + "x"))])
        fingerprint(cluster, query)
        before = encoded_rebuilds()
        cluster.apply(add=[Triple(IRI(EX + "r"), IRI(EX + "p"), IRI(EX + "s"))])
        fingerprint(cluster, query)
        assert encoded_rebuilds() == before

    def test_store_replay_does_not_rebuild_encodings(self, tmp_path):
        path = tmp_path / "paper.store"
        ClusterStore.create(path, build_example_partitioning()).close()
        with ClusterStore.open(path) as store:
            cluster = store.load_cluster()
            fingerprint(cluster, example_query())
            cluster.apply(add=[Triple(IRI(EX + "w"), IRI(EX + "p"), IRI(EX + "x"))])
            before = encoded_rebuilds()
            for delta in _mutations():
                cluster.apply(**delta)
            assert encoded_rebuilds() == before
