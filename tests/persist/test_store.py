"""Unit tests for :mod:`repro.persist` — the durable cluster store file.

Covers the file-format contract (manifest, schema version, foreign-file
rejection), the write-ahead delta journal, full-cluster loading, and
compaction.
"""

import json
import sqlite3

import pytest

import repro
from mirror import Mirror, assert_mirrors, statistics_values
from repro.datasets import example_query
from repro.datasets.paper_example import build_example_partitioning
from repro.persist import SCHEMA_VERSION, ClusterStore, StoreError
from repro.rdf import IRI, Triple

EX = "http://example.org/persist/"


def _triple(tag: str) -> Triple:
    return Triple(IRI(EX + f"s-{tag}"), IRI(EX + "p"), IRI(EX + f"o-{tag}"))


def _rows(store):
    """Every row of the tables an append writes, in key order."""
    return [
        store._conn.execute(f"SELECT * FROM {table} ORDER BY 1").fetchall()
        for table in ("terms", "deltas", "manifest")
    ]


def _answers(cluster):
    """The example query's rows on ``cluster``, in sequence."""
    with repro.Session.from_cluster(cluster) as session:
        return session.query(example_query()).results.rows


def _older_stats_payload(site):
    """One fragment's ``stats`` row as older files carry it: its planner statistics as JSON."""
    statistics, term_of = site.graph_statistics(), site.encoded.dictionary.term_of
    fields = ("count", "distinct_subjects", "distinct_objects")
    return json.dumps(
        {
            "num_triples": statistics.num_triples,
            "num_vertices": statistics.num_vertices,
            "predicates": {
                term_of(code).value: dict(zip(fields, statistics.read(term_of(code))))
                for code in site.encoded.predicate_ids()
            },
        }
    )


class _FailingManifest:
    """A store connection whose write of the manifest rows fails."""

    def __init__(self, connection):
        self._connection = connection

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def executemany(self, sql, rows):
        if "INSERT INTO manifest" in sql:
            raise RuntimeError("injected failure")
        return self._connection.executemany(sql, rows)


def _loaded(store):
    """The loaded cluster's dictionary, in id order, and each site's id triples."""
    cluster = store.load_cluster()
    terms = [cluster.dictionary.term_of(term_id) for term_id in range(len(cluster.dictionary))]
    return terms, [list(site.encoded.iter_triple_ids()) for site in cluster]


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

    def test_failed_append_leaves_head_and_journal_unchanged(self, paper_store, store_path, tmp_path):
        """A rolled-back journal transaction must not advance the in-memory head.

        Regression: the head used to be bumped while staging rows, so a
        failed commit left ``delta_head`` pointing past phantom sequence
        numbers and the next append journaled wrong seqs.  The failed batch
        brings new terms: the in-memory term map must not keep them, so the
        append that next brings them gives them the ids a store that never
        failed gives them, and the file reopens to the same rows.
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
        # not the term dictionary the rolled-back batch had extended, not
        # the in-memory map of it.
        assert paper_store.delta_head == 1
        assert paper_store.manifest["delta_head"] == "1"
        assert paper_store.info()["pending_deltas"] == 1
        assert paper_store.info()["base_terms"] == base_terms
        assert _triple("b").subject.n3() not in paper_store._term_ids
        assert len(paper_store._term_ids) == base_terms
        paper_store._conn.execute("DROP TRIGGER fail_deltas")
        # The next append reuses the sequence the failed batch never claimed,
        # and the ids of the terms it brought.
        assert paper_store.append_ops([("+", _triple("c")), ("+", _triple("b"))]) == 3
        ids = dict(paper_store._conn.execute("SELECT n3, id FROM terms"))
        assert [ids[_triple(tag).subject.n3()] for tag in "cb"] == [base_terms, base_terms + 2]
        ops = paper_store.load_deltas()
        assert [(op, triple) for op, triple in ops] == [
            ("+", _triple("a")),
            ("+", _triple("c")),
            ("+", _triple("b")),
        ]
        paper_store.close()
        control_path = tmp_path / "control.store"
        with ClusterStore.create(control_path, build_example_partitioning(), dataset="paper-example") as control:
            control.append_ops([("+", _triple("a"))])
            control.append_ops([("+", _triple("c")), ("+", _triple("b"))])
        with ClusterStore.open(store_path, read_only=True) as reopened, ClusterStore.open(control_path) as control:
            assert reopened.delta_head == 3
            assert _rows(reopened) == _rows(control)
            assert _loaded(reopened) == _loaded(control)

    def test_writable_stores_journal_with_full_sync(self, paper_store, store_path):
        assert paper_store._conn.execute("PRAGMA journal_mode").fetchone() == ("persist",)
        assert paper_store._conn.execute("PRAGMA synchronous").fetchone() == (2,)  # FULL
        paper_store.close()
        with ClusterStore.open(store_path) as reopened:
            assert reopened._conn.execute("PRAGMA journal_mode").fetchone() == ("persist",)
            assert reopened._conn.execute("PRAGMA synchronous").fetchone() == (2,)

    def test_a_closed_store_is_one_file(self, paper_store, store_path):
        def beside():
            return sorted(path.name for path in store_path.parent.iterdir() if path != store_path)

        paper_store.append_ops([("+", _triple("a"))])
        assert beside() == [store_path.name + "-journal"]
        paper_store.close()
        assert beside() == []
        with ClusterStore.open(store_path) as reopened:
            reopened.append_ops([("+", _triple("b"))])
            reopened.compact()
        assert beside() == []
        with ClusterStore.open(store_path) as reopened:
            assert reopened.delta_head == 0
            assert reopened.info()["pending_deltas"] == 0

    def test_a_reader_opens_a_store_a_writer_holds(self, paper_store, store_path):
        paper_store.append_ops([("+", _triple("a"))])
        # The writer is mid-transaction too: the reader sees the last commit.
        paper_store._conn.execute("BEGIN IMMEDIATE")
        paper_store._conn.execute("UPDATE manifest SET value = '7' WHERE key = 'delta_head'")
        with ClusterStore.open(store_path, read_only=True) as reader:
            assert reader.delta_head == 1
            assert reader.load_deltas() == [("+", _triple("a"))]
            assert len(reader.load_cluster().dictionary) == paper_store.info()["base_terms"]
        paper_store._conn.rollback()
        assert paper_store.append_ops([("+", _triple("b"))]) == 2


class TestClusterLoading:
    def test_loaded_cluster_matches_the_source(self, paper_store):
        partitioned = build_example_partitioning()
        cluster = paper_store.load_cluster()
        for original, site in zip(partitioned, cluster):
            assert site.fragment.decoded() == original
        assert_mirrors(cluster, Mirror(partitioned))

    def test_loaded_cluster_replays_the_delta_journal(self, paper_store, store_path):
        mirror = Mirror(build_example_partitioning())
        live = paper_store.load_cluster()
        live.apply(add=[_triple("x")], remove=[])
        mirror.apply(add=[_triple("x")])
        assert paper_store.delta_head == 1
        paper_store.close()
        with ClusterStore.open(store_path) as reopened_store:
            reopened = reopened_store.load_cluster()
            assert _triple("x") in mirror.triples
            assert_mirrors(reopened, mirror)
            assert_mirrors(live, mirror)

    def test_stats_rows_of_older_files_are_ignored(self, paper_store, store_path):
        """Older v1 files carry one JSON ``stats`` row per fragment.  The file
        still opens as schema v1, the loaded sites' statistics read their
        columns, the answers are those of a file without the rows, and a
        compaction clears them."""
        plain = paper_store.load_cluster()
        with paper_store._conn:
            paper_store._conn.executemany(
                "INSERT INTO stats (fragment_id, payload) VALUES (?, ?)",
                ((site.site_id, _older_stats_payload(site)) for site in plain),
            )
        paper_store.close()
        with ClusterStore.open(store_path) as reopened:
            assert reopened.manifest["schema_version"] == "1"
            loaded = reopened.load_cluster()
            terms = [loaded.dictionary.term_of(term_id) for term_id in range(len(loaded.dictionary))]
            for site, plain_site in zip(loaded, plain):
                assert statistics_values(site.graph_statistics(), terms) == statistics_values(
                    plain_site.graph_statistics(), terms
                )
            assert _answers(loaded) == _answers(plain)
            reopened.compact()
            assert reopened._conn.execute("SELECT COUNT(*) FROM stats").fetchone() == (0,)
            assert _answers(reopened.load_cluster()) == _answers(plain)

    def test_store_attaches_after_replay(self, paper_store):
        cluster = paper_store.load_cluster()
        # Replayed ops must not have been re-journaled by the load itself.
        assert cluster.store is paper_store
        assert paper_store.delta_head == 0


class TestCompaction:
    def test_compact_folds_deltas_and_preserves_state(self, paper_store, store_path):
        mirror = Mirror(build_example_partitioning())
        delta = dict(add=[_triple("k")], remove=[min(mirror.triples, key=Triple.n3)])
        cluster = paper_store.load_cluster()
        cluster.apply(**delta)
        mirror.apply(**delta)
        cluster.attach_store(None)
        report = paper_store.compact()
        assert report["folded_deltas"] == 2
        assert paper_store.delta_head == 0
        assert paper_store.info()["pending_deltas"] == 0
        assert_mirrors(paper_store.load_cluster(), mirror)

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
        mirror = Mirror(build_example_partitioning())
        delta = dict(add=[_triple("k")], remove=[min(mirror.triples, key=Triple.n3)])
        cluster = paper_store.load_cluster()
        cluster.apply(**delta)
        mirror.apply(**delta)
        info_before = paper_store.info()
        cluster.attach_store(None)
        # The manifest is the snapshot's last write: every table is cleared and refilled by then.
        monkeypatch.setattr(paper_store, "_conn", _FailingManifest(paper_store._conn))
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
        assert_mirrors(paper_store.load_cluster(), mirror)
        paper_store.close()
        with ClusterStore.open(store_path) as reopened:
            assert_mirrors(reopened.load_cluster(), mirror)
