"""Unit tests for :mod:`repro.persist` — the durable cluster store file.

Covers the file-format contract (manifest, schema version, foreign-file
rejection), the write-ahead delta journal, full-cluster loading, and
compaction.
"""

import sqlite3

import pytest

from repro.datasets.paper_example import build_example_partitioning
from repro.persist import SCHEMA_VERSION, ClusterStore, StoreError
from repro.rdf import IRI, Triple

EX = "http://example.org/persist/"


def _triple(tag: str) -> Triple:
    return Triple(IRI(EX + f"s-{tag}"), IRI(EX + "p"), IRI(EX + f"o-{tag}"))


@pytest.fixture()
def store_path(tmp_path):
    return tmp_path / "cluster.store"


@pytest.fixture()
def paper_store(store_path):
    store = ClusterStore.create(
        store_path, build_example_partitioning(), dataset="paper-example", scale=None
    )
    yield store
    store.close()


class TestFileFormat:
    def test_create_writes_a_versioned_manifest(self, paper_store):
        manifest = paper_store.manifest
        assert manifest["format"] == "repro-store"
        assert int(manifest["schema_version"]) == SCHEMA_VERSION
        assert manifest["dataset"] == "paper-example"
        assert int(manifest["num_fragments"]) == 3

    def test_info_reports_counts_and_sizes(self, paper_store):
        info = paper_store.info()
        partitioned = build_example_partitioning()
        assert info["base_triples"] == len(partitioned.graph)
        assert info["assigned_vertices"] == len(partitioned.assignment)
        assert info["pending_deltas"] == 0
        assert info["file_bytes"] > 0

    def test_create_refuses_to_clobber_without_overwrite(self, paper_store, store_path):
        with pytest.raises(StoreError, match="already exists"):
            ClusterStore.create(store_path, build_example_partitioning())

    def test_create_with_overwrite_replaces_the_file(self, paper_store, store_path):
        paper_store.close()
        with ClusterStore.create(
            store_path, build_example_partitioning(), overwrite=True
        ) as rebuilt:
            assert rebuilt.delta_head == 0

    def test_open_missing_file_is_a_store_error(self, tmp_path):
        with pytest.raises(StoreError, match="no store file"):
            ClusterStore.open(tmp_path / "nope.store")

    def test_open_rejects_a_foreign_sqlite_file(self, tmp_path):
        path = tmp_path / "foreign.db"
        connection = sqlite3.connect(str(path))
        connection.execute("CREATE TABLE t (x)")
        connection.commit()
        connection.close()
        with pytest.raises(StoreError, match="not a repro store"):
            ClusterStore.open(path)

    def test_open_rejects_a_non_sqlite_file(self, tmp_path):
        path = tmp_path / "garbage.store"
        path.write_text("not a database")
        with pytest.raises(StoreError, match="not a repro store"):
            ClusterStore.open(path)

    def test_open_refuses_newer_schema_versions(self, paper_store, store_path):
        paper_store._conn.execute(
            "UPDATE manifest SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        paper_store._conn.commit()
        paper_store.close()
        with pytest.raises(StoreError, match="schema"):
            ClusterStore.open(store_path)


class TestDeltaJournal:
    def test_append_ops_advances_the_head_durably(self, paper_store, store_path):
        assert paper_store.delta_head == 0
        head = paper_store.append_ops([("+", _triple("a")), ("+", _triple("b"))])
        assert head == 2
        paper_store.close()
        with ClusterStore.open(store_path, read_only=True) as reopened:
            assert reopened.delta_head == 2
            ops = reopened.load_deltas()
            assert [op for op, _ in ops] == ["+", "+"]
            assert ops[0][1] == _triple("a")

    def test_empty_batches_are_free(self, paper_store):
        assert paper_store.append_ops([]) == 0
        assert paper_store.info()["pending_deltas"] == 0

    def test_removals_are_journaled_in_order(self, paper_store):
        paper_store.append_ops([("+", _triple("a")), ("-", _triple("a"))])
        ops = paper_store.load_deltas()
        assert [op for op, _ in ops] == ["+", "-"]

    def test_read_only_stores_reject_writes(self, paper_store, store_path):
        paper_store.close()
        with ClusterStore.open(store_path, read_only=True) as reopened:
            with pytest.raises(StoreError, match="read-only"):
                reopened.append_ops([("+", _triple("a"))])
            with pytest.raises(StoreError, match="read-only"):
                reopened.compact()

    def test_new_terms_get_appended_dictionary_ids(self, paper_store):
        base_terms = paper_store.info()["base_terms"]
        paper_store.append_ops([("+", _triple("fresh"))])
        rows = dict(paper_store._conn.execute("SELECT n3, id FROM terms"))
        # The three new terms continue the dense id sequence.
        assert paper_store.info()["base_terms"] == base_terms + 3
        assert rows[_triple("fresh").subject.n3()] >= base_terms

    def test_failed_append_leaves_head_and_journal_unchanged(self, paper_store, store_path):
        """A rolled-back journal transaction must not advance the in-memory head.

        Regression: the head used to be bumped while staging rows, so a
        failed commit left ``delta_head`` pointing past phantom sequence
        numbers and the next append journaled wrong seqs.
        """
        paper_store.append_ops([("+", _triple("a"))])
        base_terms = paper_store.info()["base_terms"]
        paper_store._conn.execute(
            "CREATE TEMP TRIGGER fail_deltas BEFORE INSERT ON deltas"
            " BEGIN SELECT RAISE(ABORT, 'injected failure'); END"
        )
        with pytest.raises(sqlite3.DatabaseError, match="injected"):
            paper_store.append_ops([("+", _triple("b"))])
        # Nothing moved: not the head, not the manifest, not the journal,
        # not the term dictionary the rolled-back batch had extended.
        assert paper_store.delta_head == 1
        assert paper_store.manifest["delta_head"] == "1"
        assert paper_store.info()["pending_deltas"] == 1
        assert paper_store.info()["base_terms"] == base_terms
        paper_store._conn.execute("DROP TRIGGER fail_deltas")
        # The next append reuses the sequence the failed batch never claimed.
        assert paper_store.append_ops([("+", _triple("c"))]) == 2
        ops = paper_store.load_deltas()
        assert [(op, triple) for op, triple in ops] == [
            ("+", _triple("a")),
            ("+", _triple("c")),
        ]
        paper_store.close()
        with ClusterStore.open(store_path, read_only=True) as reopened:
            assert reopened.delta_head == 2


class TestClusterLoading:
    def test_loaded_cluster_matches_the_source(self, paper_store):
        partitioned = build_example_partitioning()
        cluster = paper_store.load_cluster()
        assert set(cluster.graph) == set(partitioned.graph)
        assert cluster.partitioned_graph.assignment == partitioned.assignment
        for original, loaded in zip(partitioned, cluster.partitioned_graph):
            assert loaded.internal_vertices == original.internal_vertices
            assert loaded.internal_edges == original.internal_edges
            assert loaded.crossing_edges == original.crossing_edges
            assert loaded.extended_vertices == original.extended_vertices
        cluster.partitioned_graph.validate()

    def test_loaded_cluster_replays_the_delta_journal(self, paper_store, store_path):
        live = paper_store.load_cluster()
        live.apply(add=[_triple("x")], remove=[])
        assert paper_store.delta_head == 1
        paper_store.close()
        with ClusterStore.open(store_path) as reopened_store:
            reopened = reopened_store.load_cluster()
            assert _triple("x") in set(reopened.graph)
            assert set(reopened.graph) == set(live.graph)
            reopened.partitioned_graph.validate()

    def test_loaded_sites_reuse_the_stored_statistics(self, paper_store):
        cluster = paper_store.load_cluster()
        for site in cluster:
            stored = paper_store.load_statistics(site.site_id)
            assert stored is not None
            assert site.store.statistics.as_dict() == stored.as_dict()

    def test_store_attaches_after_replay(self, paper_store):
        cluster = paper_store.load_cluster()
        # Replayed ops must not have been re-journaled by the load itself.
        assert cluster.store is paper_store
        assert paper_store.delta_head == 0


class TestCompaction:
    def test_compact_folds_deltas_and_preserves_state(self, paper_store, store_path):
        cluster = paper_store.load_cluster()
        cluster.apply(add=[_triple("k")], remove=[next(iter(cluster.graph))])
        state_before = set(cluster.graph)
        cluster.attach_store(None)
        report = paper_store.compact()
        assert report["folded_deltas"] == 2
        assert paper_store.delta_head == 0
        assert paper_store.info()["pending_deltas"] == 0
        compacted = paper_store.load_cluster()
        assert set(compacted.graph) == state_before
        compacted.partitioned_graph.validate()

    def test_failed_compaction_rolls_back_to_the_previous_state(
        self, paper_store, store_path, monkeypatch
    ):
        """An error mid-snapshot must leave the store exactly as it was.

        Regression: the snapshot rewrite used to DROP and recreate the
        tables, and DDL autocommits eagerly under pysqlite — an error after
        the drops stranded the file with no manifest or data.  The rewrite
        now runs as DELETE + INSERT inside one explicit transaction, so the
        failure below rolls back to the pre-compaction store.
        """
        from repro.planner.statistics import GraphStatistics

        cluster = paper_store.load_cluster()
        cluster.apply(add=[_triple("k")], remove=[next(iter(cluster.graph))])
        state_before = set(cluster.graph)
        info_before = paper_store.info()
        cluster.attach_store(None)
        monkeypatch.setattr(
            GraphStatistics,
            "as_dict",
            lambda self: (_ for _ in ()).throw(RuntimeError("injected failure")),
        )
        with pytest.raises(RuntimeError, match="injected"):
            paper_store.compact()
        monkeypatch.undo()
        # Same head, same journal, same counts — and still loadable, both
        # through the live handle and from a fresh open of the file.
        assert paper_store.delta_head == info_before["delta_head"]
        after = paper_store.info()
        assert after["pending_deltas"] == info_before["pending_deltas"]
        assert after["base_triples"] == info_before["base_triples"]
        assert after["base_terms"] == info_before["base_terms"]
        assert set(paper_store.load_cluster().graph) == state_before
        paper_store.close()
        with ClusterStore.open(store_path) as reopened:
            recovered = reopened.load_cluster()
            assert set(recovered.graph) == state_before
            recovered.partitioned_graph.validate()
