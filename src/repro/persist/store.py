"""The SQLite-backed cluster store.

One store file holds one cluster, in five tables plus a manifest:

* ``manifest`` — key/value: format marker, schema version, dataset name and
  scale, graph name, partitioning strategy, fragment count, delta head.
* ``terms`` — the dictionary: dense integer id → N3 text.  Base ids are
  assigned in sorted-N3 order; terms first seen by a delta get appended ids
  in first-appearance order (mirroring the in-memory encoding's append
  discipline).
* ``triples`` — the *base* master graph as integer ``(s, p, o)`` rows.
* ``assignment`` — term id → fragment id, the Definition 1 vertex
  assignment (sticky entries included, so replayed routing is identical).
* ``stats`` — per-fragment planner statistics as JSON, collected at
  snapshot time so reopening skips the collection pass.
* ``deltas`` — the write-ahead delta table: ``(seq, op, s, p, o)`` rows,
  one per effective mutation, appended (and fsynced) by
  :meth:`~repro.distributed.Cluster.apply` before it returns.

Fragments are deliberately *not* stored: they are a pure function of
(base graph, assignment, delta sequence), and per-fragment SQL against the
indexed ``assignment`` table loads one site's edges in O(|F_k|), not O(|E|).

Crash safety: every write happens inside one SQLite transaction with
``synchronous=FULL``, so a crash mid-commit leaves the previous committed
state (SQLite's rollback journal restores it on the next open).  A torn
``apply`` therefore loses at most the op batch being journaled — never the
base snapshot, never previously committed deltas.  Snapshot rewrites
(:meth:`ClusterStore.compact`) deliberately avoid DDL: DDL autocommits
eagerly under pysqlite's legacy transaction handling, so tables are cleared
with ``DELETE FROM`` inside one explicit ``BEGIN IMMEDIATE`` transaction —
a crash mid-compaction rolls back to the pre-compaction store, never to an
empty file.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..planner.statistics import GraphStatistics, collect_statistics
from ..rdf.graph import RDFGraph
from ..rdf.ntriples import parse_term
from ..rdf.terms import Node, Term
from ..rdf.triples import Triple

PathLike = Union[str, Path]

#: Manifest format marker of a cluster store file.
STORE_FORMAT = "repro-store"
#: Bump on any incompatible schema change; open() refuses newer files.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE manifest (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE terms (id INTEGER PRIMARY KEY, n3 TEXT NOT NULL UNIQUE);
CREATE TABLE triples (
    s INTEGER NOT NULL, p INTEGER NOT NULL, o INTEGER NOT NULL,
    PRIMARY KEY (s, p, o)
) WITHOUT ROWID;
CREATE INDEX triples_by_o ON triples(o);
CREATE TABLE assignment (term INTEGER PRIMARY KEY, fragment_id INTEGER NOT NULL);
CREATE INDEX assignment_by_fragment ON assignment(fragment_id);
CREATE TABLE stats (fragment_id INTEGER PRIMARY KEY, payload TEXT NOT NULL);
CREATE TABLE deltas (
    seq INTEGER PRIMARY KEY, op TEXT NOT NULL,
    s INTEGER NOT NULL, p INTEGER NOT NULL, o INTEGER NOT NULL
);
"""

_TABLES = ("manifest", "terms", "triples", "assignment", "stats", "deltas")


class StoreError(ValueError):
    """Raised for malformed, missing or misused store files."""


class ClusterStore:
    """One cluster's durable home: a single SQLite file.

    Use the classmethods: :meth:`create` snapshots a
    :class:`~repro.partition.PartitionedGraph` into a fresh file,
    :meth:`open` attaches to an existing one (``read_only=True`` for
    inspection).  :meth:`load_cluster` rebuilds the full
    :class:`~repro.distributed.Cluster`, replaying the delta table.
    """

    def __init__(self, path: Path, connection: sqlite3.Connection, read_only: bool) -> None:
        self._path = Path(path)
        self._conn = connection
        self._read_only = read_only
        self._lock = threading.Lock()
        self._manifest = self._read_manifest()
        self._head = int(self._manifest.get("delta_head", "0"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: PathLike,
        partitioned,
        *,
        dataset: str = "",
        scale: Optional[int] = None,
        statistics: Optional[Mapping[int, GraphStatistics]] = None,
        overwrite: bool = False,
    ) -> "ClusterStore":
        """Snapshot ``partitioned`` into a brand-new store file at ``path``.

        ``statistics`` optionally supplies already-collected per-fragment
        summaries (keyed by fragment id); missing ones are collected here.
        Refuses to clobber an existing file unless ``overwrite`` is set.
        """
        path = Path(path)
        if path.exists():
            if not overwrite:
                raise StoreError(
                    f"store file already exists: {path} (pass overwrite/--force to replace it)"
                )
            path.unlink()
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(str(path), check_same_thread=False)
        connection.execute("PRAGMA synchronous=FULL")
        try:
            # DDL once, at creation time; snapshot rewrites never drop or
            # recreate tables (see _write_snapshot).
            connection.executescript(_SCHEMA)
            _write_snapshot(
                connection,
                partitioned,
                dataset=dataset,
                scale=scale,
                statistics=statistics,
            )
        except BaseException:
            connection.close()
            path.unlink(missing_ok=True)
            raise
        return cls(path, connection, read_only=False)

    @classmethod
    def open(cls, path: PathLike, *, read_only: bool = False) -> "ClusterStore":
        """Attach to an existing store file (``read_only`` for inspection)."""
        path = Path(path)
        if not path.exists():
            raise StoreError(f"no store file at {path}")
        try:
            if read_only:
                connection = sqlite3.connect(
                    f"file:{path}?mode=ro", uri=True, check_same_thread=False
                )
            else:
                connection = sqlite3.connect(str(path), check_same_thread=False)
                connection.execute("PRAGMA synchronous=FULL")
            connection.execute("PRAGMA busy_timeout=5000")
        except sqlite3.DatabaseError as error:
            raise StoreError(f"{path} is not a repro store file: {error}") from None
        try:
            store = cls(path, connection, read_only=read_only)
        except BaseException:
            connection.close()
            raise
        return store

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ClusterStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def read_only(self) -> bool:
        return self._read_only

    @property
    def delta_head(self) -> int:
        """Sequence number of the newest journaled delta (0 = none)."""
        return self._head

    @property
    def manifest(self) -> Dict[str, str]:
        return dict(self._manifest)

    @property
    def num_fragments(self) -> int:
        return int(self._manifest["num_fragments"])

    @property
    def dataset(self) -> str:
        return self._manifest.get("dataset", "")

    @property
    def scale(self) -> Optional[int]:
        raw = self._manifest.get("scale", "null")
        value = json.loads(raw)
        return int(value) if value is not None else None

    def _read_manifest(self) -> Dict[str, str]:
        try:
            rows = self._conn.execute("SELECT key, value FROM manifest").fetchall()
        except sqlite3.DatabaseError as error:
            raise StoreError(f"{self._path} is not a repro store file: {error}") from None
        manifest = dict(rows)
        if manifest.get("format") != STORE_FORMAT:
            raise StoreError(f"{self._path} is not a repro store file")
        version = int(manifest.get("schema_version", "0"))
        if version > SCHEMA_VERSION:
            raise StoreError(
                f"{self._path} uses store schema v{version}; this build reads up to v{SCHEMA_VERSION}"
            )
        return manifest

    def info(self) -> Dict[str, object]:
        """Summary of the file for ``repro store info`` and tests."""
        counts = {
            name: self._conn.execute(f"SELECT COUNT(*) FROM {name}").fetchone()[0]
            for name in ("terms", "triples", "assignment", "deltas")
        }
        return {
            "path": str(self._path),
            "format": self._manifest.get("format", ""),
            "schema_version": int(self._manifest.get("schema_version", "0")),
            "dataset": self.dataset,
            "scale": self.scale,
            "graph_name": self._manifest.get("graph_name", ""),
            "strategy": self._manifest.get("strategy", ""),
            "num_fragments": self.num_fragments,
            "delta_head": self.delta_head,
            "base_terms": counts["terms"],
            "base_triples": counts["triples"],
            "assigned_vertices": counts["assignment"],
            "pending_deltas": counts["deltas"],
            "file_bytes": self._path.stat().st_size,
        }

    # ------------------------------------------------------------------
    # Write-ahead delta journal
    # ------------------------------------------------------------------
    def append_ops(self, ops: Iterable[Tuple[str, Triple]]) -> int:
        """Journal effective mutation ops; returns the new delta head.

        Terms never seen before get appended dictionary ids in
        first-appearance order — the same discipline the in-memory
        :class:`~repro.store.TermDictionary` uses, so replayed encodings
        agree with live ones.  The batch commits (and fsyncs) atomically;
        ``self`` is only mutated *after* the commit, so a failed transaction
        (disk full, busy timeout) leaves both the file and the in-memory
        head/manifest exactly as they were — the next append reuses the same
        sequence numbers instead of skipping past phantom ones.
        """
        if self._read_only:
            raise StoreError(f"store opened read-only: {self._path}")
        staged = list(ops)
        if not staged:
            return self._head
        with self._lock:
            head = self._head
            with self._conn:
                cursor = self._conn.cursor()
                next_id = cursor.execute(
                    "SELECT COALESCE(MAX(id), -1) + 1 FROM terms"
                ).fetchone()[0]
                rows = []
                for op, triple in staged:
                    ids = []
                    for term in (triple.subject, triple.predicate, triple.object):
                        text = term.n3()
                        found = cursor.execute(
                            "SELECT id FROM terms WHERE n3 = ?", (text,)
                        ).fetchone()
                        if found is None:
                            cursor.execute(
                                "INSERT INTO terms (id, n3) VALUES (?, ?)", (next_id, text)
                            )
                            ids.append(next_id)
                            next_id += 1
                        else:
                            ids.append(found[0])
                    head += 1
                    rows.append((head, op, ids[0], ids[1], ids[2]))
                cursor.executemany(
                    "INSERT INTO deltas (seq, op, s, p, o) VALUES (?, ?, ?, ?, ?)", rows
                )
                cursor.execute(
                    "UPDATE manifest SET value = ? WHERE key = 'delta_head'", (str(head),)
                )
            # Past this point the transaction is committed; only now may the
            # in-memory view advance.
            self._head = head
            self._manifest["delta_head"] = str(head)
        return self._head

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _load_terms(self) -> List[Term]:
        """Every term, as a dense id-indexed list (ids are dense by design)."""
        rows = self._conn.execute("SELECT id, n3 FROM terms ORDER BY id").fetchall()
        terms: List[Term] = [None] * len(rows)  # type: ignore[list-item]
        for term_id, text in rows:
            if term_id >= len(terms):  # pragma: no cover - defensive
                raise StoreError(f"non-dense term id {term_id} in {self._path}")
            terms[term_id] = parse_term(text)
        return terms

    def _decode_terms(self, ids: Iterable[int]) -> Dict[int, Term]:
        """Decode just ``ids`` (chunked SQL IN probes)."""
        wanted = sorted(set(ids))
        decoded: Dict[int, Term] = {}
        for start in range(0, len(wanted), 500):
            chunk = wanted[start : start + 500]
            marks = ",".join("?" * len(chunk))
            for term_id, text in self._conn.execute(
                f"SELECT id, n3 FROM terms WHERE id IN ({marks})", chunk
            ):
                decoded[term_id] = parse_term(text)
        missing = set(wanted) - set(decoded)
        if missing:  # pragma: no cover - defensive
            raise StoreError(f"unknown term ids {sorted(missing)[:5]} in {self._path}")
        return decoded

    def load_deltas(
        self, terms: Optional[Mapping[int, Term]] = None
    ) -> List[Tuple[str, Triple]]:
        """The journaled op sequence, oldest first, decoded to triples."""
        rows = self._conn.execute(
            "SELECT op, s, p, o FROM deltas ORDER BY seq"
        ).fetchall()
        if not rows:
            return []
        if terms is None:
            ids = set()
            for _, s, p, o in rows:
                ids.update((s, p, o))
            terms = self._decode_terms(ids)
        return [
            (op, Triple(terms[s], terms[p], terms[o])) for op, s, p, o in rows
        ]

    def load_statistics(self, fragment_id: int) -> Optional[GraphStatistics]:
        """The stored planner statistics of one fragment (base state)."""
        row = self._conn.execute(
            "SELECT payload FROM stats WHERE fragment_id = ?", (fragment_id,)
        ).fetchone()
        if row is None:
            return None
        return GraphStatistics.from_dict(json.loads(row[0]))

    def load_cluster(self, network=None):
        """Rebuild the full cluster: base snapshot + delta replay.

        The replay goes through :meth:`Cluster.apply_ops` — the exact code
        path live mutations took — from the exact base the live cluster
        mutated from, which is what makes the reopened cluster's encodings,
        fragments and statistics bit-identical to the live one's.  The store
        attaches to the cluster *after* replay so replayed ops are not
        re-journaled.
        """
        from ..distributed.cluster import Cluster
        from ..partition.fragment import build_partitioned_graph

        terms = self._load_terms()
        graph = RDFGraph(name=self._manifest.get("graph_name", ""))
        for s, p, o in self._conn.execute("SELECT s, p, o FROM triples"):
            graph.add(Triple(terms[s], terms[p], terms[o]))
        assignment = {
            terms[term_id]: fragment_id
            for term_id, fragment_id in self._conn.execute(
                "SELECT term, fragment_id FROM assignment"
            )
        }
        partitioned = build_partitioned_graph(
            graph,
            assignment,
            num_fragments=self.num_fragments,
            strategy=self._manifest.get("strategy", "loaded"),
            validate=False,
        )
        cluster = Cluster(partitioned, network=network)
        for site in cluster:
            statistics = self.load_statistics(site.site_id)
            if statistics is not None:
                site.store.preload_statistics(statistics)
        ops = self.load_deltas({i: term for i, term in enumerate(terms)})
        if ops:
            cluster.apply_ops(ops)
        cluster.attach_store(self)
        return cluster

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, object]:
        """Fold the delta journal into a fresh base snapshot, then VACUUM.

        Rebuilds the cluster (replaying all deltas), rewrites every table
        from the resulting state in one transaction, and resets the delta
        head to zero.  Observable results (answers, search steps, shipment
        fingerprints) are unchanged; the op-level replay history is
        intentionally discarded.
        """
        if self._read_only:
            raise StoreError(f"store opened read-only: {self._path}")
        folded = self._conn.execute("SELECT COUNT(*) FROM deltas").fetchone()[0]
        cluster = self.load_cluster()
        cluster.attach_store(None)
        with self._lock:
            _write_snapshot(
                self._conn,
                cluster.partitioned_graph,
                dataset=self.dataset,
                scale=self.scale,
                statistics={site.site_id: site.store.statistics for site in cluster},
            )
            self._conn.execute("VACUUM")
            self._manifest = self._read_manifest()
            self._head = 0
        return {"folded_deltas": folded, "file_bytes": self._path.stat().st_size}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ClusterStore {str(self._path)!r} deltas={self._head}>"


def _write_snapshot(
    connection: sqlite3.Connection,
    partitioned,
    *,
    dataset: str,
    scale: Optional[int],
    statistics: Optional[Mapping[int, GraphStatistics]],
) -> None:
    """(Re)write every table from ``partitioned``'s current state, atomically.

    The schema already exists (created once by :meth:`ClusterStore.create`);
    tables are cleared with ``DELETE FROM`` and refilled inside one explicit
    ``BEGIN IMMEDIATE`` transaction.  DDL (``DROP``/``CREATE``/
    ``executescript``) is deliberately absent: under pysqlite's legacy
    transaction handling it autocommits eagerly, which would leave a window
    where a crash strands the file with its tables dropped — on an existing
    store (:meth:`ClusterStore.compact`) that would be permanent data loss.
    Here a crash or error at any point rolls back to the previous committed
    snapshot.
    """
    graph = partitioned.graph
    assignment: Dict[Node, int] = partitioned.assignment
    terms = set(assignment)
    for triple in graph:
        terms.add(triple.subject)
        terms.add(triple.predicate)
        terms.add(triple.object)
    ordered = sorted(term.n3() for term in terms)
    term_id = {text: position for position, text in enumerate(ordered)}
    if connection.in_transaction:  # pragma: no cover - defensive
        connection.commit()
    connection.execute("BEGIN IMMEDIATE")
    try:
        for table in _TABLES:
            connection.execute(f"DELETE FROM {table}")
        connection.executemany(
            "INSERT INTO terms (id, n3) VALUES (?, ?)",
            ((position, text) for text, position in term_id.items()),
        )
        connection.executemany(
            "INSERT INTO triples (s, p, o) VALUES (?, ?, ?)",
            (
                (
                    term_id[t.subject.n3()],
                    term_id[t.predicate.n3()],
                    term_id[t.object.n3()],
                )
                for t in graph
            ),
        )
        connection.executemany(
            "INSERT INTO assignment (term, fragment_id) VALUES (?, ?)",
            (
                (term_id[vertex.n3()], fragment_id)
                for vertex, fragment_id in assignment.items()
            ),
        )
        for fragment in partitioned:
            summary = None
            if statistics is not None:
                summary = statistics.get(fragment.fragment_id)
            if summary is None:
                summary = collect_statistics(fragment.to_graph())
            connection.execute(
                "INSERT INTO stats (fragment_id, payload) VALUES (?, ?)",
                (fragment.fragment_id, json.dumps(summary.as_dict())),
            )
        manifest = {
            "format": STORE_FORMAT,
            "schema_version": str(SCHEMA_VERSION),
            "dataset": dataset or "",
            "scale": json.dumps(scale),
            "graph_name": graph.name,
            "strategy": partitioned.strategy,
            "num_fragments": str(partitioned.num_fragments),
            "delta_head": "0",
        }
        connection.executemany(
            "INSERT INTO manifest (key, value) VALUES (?, ?)", manifest.items()
        )
    except BaseException:
        connection.rollback()
        raise
    connection.commit()
