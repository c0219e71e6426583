"""Warm open at the id level: a loaded cluster is the live cluster, id for id.

``ClusterStore.load_cluster`` maps the file's ids (sorted-N3 order, deltas'
new terms appended) onto the cluster dictionary of the base terms and builds
the sites straight from the int tables.  With and without journaled deltas,
the reopened cluster must have the live cluster's dictionary term sequence,
per-site id triples, Definition 1 id sets and statistics — not only the same
answers.
"""

from mirror import statistics_values
from repro.datasets import get_dataset
from repro.datasets.paper_example import build_example_partitioning
from repro.distributed import build_cluster
from repro.partition import HashPartitioner
from repro.persist import SCHEMA_VERSION, ClusterStore
from repro.rdf import IRI, Triple

EX = "http://example.org/warm-open/"


def id_state(cluster):
    """Everything a cluster holds, as ids: nothing decoded but the dictionary's terms."""
    terms = [cluster.dictionary.term_of(term_id) for term_id in range(len(cluster.dictionary))]
    return (
        terms,
        list(cluster.encoded.iter_triple_ids()),
        [
            (
                list(site.encoded.iter_triple_ids()),
                site.graph.internal,
                site.graph.extended,
                site.graph.crossing,
                site.graph.crossing_by_predicate,
                statistics_values(site.graph_statistics(), terms),
            )
            for site in cluster
        ],
    )


def deltas(partitioned):
    """Removals of base triples, new terms, a vertex that loses its last edge and comes back."""
    first, second = sorted(partitioned.graph, key=Triple.n3)[:2]
    new_s, new_p, new_o = IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o")
    return [
        dict(remove=[first], add=[Triple(new_s, new_p, first.object)]),
        dict(add=[Triple(new_o, second.predicate, new_s), first], remove=[second]),
        dict(remove=[Triple(new_s, new_p, first.object), Triple(new_o, second.predicate, new_s)]),
        dict(add=[Triple(new_s, first.predicate, new_o)]),
    ]


def check(partitioned, path):
    live = build_cluster(partitioned)
    ClusterStore.create(path, partitioned).close()
    with ClusterStore.open(path) as store:
        assert id_state(store.load_cluster()) == id_state(live)
        journaled = store.load_cluster()
        for delta in deltas(partitioned):
            live.apply(**delta)
            journaled.apply(**delta)
    assert id_state(journaled) == id_state(live)
    with ClusterStore.open(path) as store:
        assert store.delta_head > 0
        assert id_state(store.load_cluster()) == id_state(live)


def test_paper_example_reopens_id_for_id(tmp_path):
    check(build_example_partitioning(), tmp_path / "paper.store")


def test_lubm_reopens_id_for_id(tmp_path):
    check(HashPartitioner(4).partition(get_dataset("LUBM").generate(scale=1)), tmp_path / "lubm.store")


def test_the_file_keeps_its_format(tmp_path):
    """Schema v1: base ids in sorted-N3 order, which is not the cluster's id order."""
    assert SCHEMA_VERSION == 1
    partitioned = build_example_partitioning()
    path = tmp_path / "paper.store"
    with ClusterStore.create(path, partitioned) as store:
        assert store.manifest["schema_version"] == "1"
        rows = store._conn.execute("SELECT id, n3 FROM terms ORDER BY id").fetchall()
        assert [n3 for _, n3 in rows] == sorted(n3 for _, n3 in rows)
        cluster = store.load_cluster()
        cluster_order = [cluster.dictionary.term_of(term_id).n3() for term_id in range(len(cluster.dictionary))]
        assert sorted(cluster_order) == [n3 for _, n3 in rows]
        assert cluster_order != [n3 for _, n3 in rows], "the example should exercise the id mapping"
        assert id_state(cluster) == id_state(build_cluster(partitioned))
