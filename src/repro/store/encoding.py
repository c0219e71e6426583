"""Dictionary encoding and sorted columns: the integer substrate of the matching kernel.

Real RDF stores dictionary-encode terms into dense integer ids and serve
every triple-pattern probe from sorted id permutations (RDF-3X, Neumann &
Weikum, VLDB 2008).  This module is that layer for the reproduction:

* :class:`TermDictionary` maps every term of one graph (vertices *and*
  predicates) to a dense id.  Ids are assigned in the total order
  ``(type name, n3 text)`` — exactly the order the matcher has always used
  to sort candidate pools — so **sorting ids is sorting candidates**: the
  backtracking search stays bit-for-bit deterministic (same answers, same
  ``search_steps``) while every per-step ``node.n3()`` sort disappears.
* :class:`SortedColumn` is one predicate's adjacency in one direction in CSR
  form: ascending keys, one flat list of ascending rows, offset bounds.
* :class:`EncodedGraph` is the dictionary plus an out-column (subject →
  objects) and an in-column (object → subjects) per predicate, all built in
  one pass: encode the triples, sort them by predicate, cut them into rows.
  Every probe reads those columns; :meth:`EncodedGraph.apply_ops` patches
  only the touched predicates' columns.
* :func:`encoded_view` caches one :class:`EncodedGraph` per graph, keyed on
  :attr:`~repro.rdf.graph.RDFGraph.version`, so the encoding is built
  lazily, reused across queries, and patched from the graph's journal after
  a mutation.

Decoding happens only at result boundaries (bindings, candidate sets handed
to the distributed layers); everything inside the kernel is ints.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..rdf.graph import RDFGraph
from ..rdf.terms import IRI, Node, PatternTerm, Term, Variable
from ..rdf.triples import Triple

#: Predicate code of a query edge whose predicate is a variable ("any label").
PREDICATE_ANY = -1
#: Predicate code of a constant query predicate that cannot match any data
#: edge (the IRI is absent from the graph, or the term is not an IRI at all).
PREDICATE_ABSENT = -2

#: Attribute under which :func:`encoded_view` caches the per-graph encoding.
_CACHE_ATTRIBUTE = "_repro_encoded_view"


def term_sort_key(term: Term) -> Tuple[str, str]:
    """The canonical total order on terms: by type name, then surface syntax.

    This is the order the object-path matcher sorted candidate pools with;
    the dictionary assigns ids in this order, which is what makes integer
    order and candidate order the same thing.
    """
    return (type(term).__name__, term.n3())


def predicate_code(encoded: "EncodedGraph", predicate: PatternTerm) -> int:
    """The kernel code of a query-edge predicate.

    Variables map to :data:`PREDICATE_ANY`; constant IRIs map to their
    dictionary id, or :data:`PREDICATE_ABSENT` when the graph never uses the
    label (no data edge can match).  Non-IRI constants cannot label data
    edges, so they are absent by construction.
    """
    if isinstance(predicate, Variable):
        return PREDICATE_ANY
    if not isinstance(predicate, IRI):
        return PREDICATE_ABSENT
    predicate_id = encoded.dictionary.get(predicate)
    return PREDICATE_ABSENT if predicate_id is None else predicate_id


class TermDictionary:
    """A bidirectional Node ↔ dense-int-id mapping for one graph.

    Ids are dense (``0..len-1``) and assigned in :func:`term_sort_key` order
    over *all* terms of the graph — vertices and predicates alike — so any
    subset of ids sorts exactly like the corresponding terms.
    """

    __slots__ = ("_ids", "_terms", "_n3")

    def __init__(self, terms: Iterable[Term]) -> None:
        decorated = sorted((term_sort_key(term), term) for term in set(terms))
        self._terms: List[Term] = [term for _, term in decorated]
        self._n3: List[str] = [key[1] for key, _ in decorated]
        self._ids: Dict[Term, int] = {
            term: position for position, term in enumerate(self._terms)
        }

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def id_of(self, term: Term) -> int:
        """The id of ``term``; raises ``KeyError`` for unknown terms."""
        return self._ids[term]

    def get(self, term: Term) -> Optional[int]:
        """The id of ``term``, or ``None`` when the graph never saw it."""
        return self._ids.get(term)

    def term_of(self, term_id: int) -> Term:
        """The term behind ``term_id`` (dense ids make this a list lookup)."""
        return self._terms[term_id]

    def n3_of(self, term_id: int) -> str:
        """The (precomputed) N3 text of ``term_id`` — no re-serialization."""
        return self._n3[term_id]

    def encode_nodes(self, nodes: Iterable[Node]) -> Set[int]:
        """Ids of ``nodes``, silently dropping terms unknown to the graph."""
        ids = self._ids
        return {ids[node] for node in nodes if node in ids}

    def decode_ids(self, ids: Iterable[int]) -> Set[Node]:
        """The terms behind ``ids`` as a set of nodes."""
        terms = self._terms
        return {terms[term_id] for term_id in ids}

    def ensure(self, term: Term) -> int:
        """The id of ``term``, appending a fresh id for unseen terms.

        Appended ids break the "sorted ids == sorted candidates" invariant
        for the *new* terms only; the delta machinery keeps determinism by
        making every replica of a graph apply the identical op sequence from
        the identical base, so appended ids agree everywhere (see
        docs/persistence.md).
        """
        existing = self._ids.get(term)
        if existing is not None:
            return existing
        term_id = len(self._terms)
        self._terms.append(term)
        self._n3.append(term.n3())
        self._ids[term] = term_id
        return term_id


class SortedColumn:
    """One predicate's adjacency in one direction, in CSR form.

    ``keys`` ascend, and ``values[offsets[i]:offsets[i + 1]]`` is the
    ascending row of ``keys[i]``; ``_rows`` maps a key to that ``i``.
    ``values`` is one flat list, so the gallop path probes it with
    ``bisect_left(values, item, lo, hi)`` — no slicing, no element boxing.
    A column is never mutated: a patch builds a new one.
    """

    __slots__ = ("keys", "values", "offsets", "_rows")

    def __init__(
        self,
        keys: List[int],
        values: List[int],
        offsets: List[int],
        rows: Optional[Dict[int, int]] = None,
    ) -> None:
        self.keys = keys
        self.values = values
        self.offsets = offsets
        self._rows = dict(zip(keys, range(len(keys)))) if rows is None else rows

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "SortedColumn":
        """The column of ascending, distinct ``(key, value)`` pairs, cut into rows."""
        keys: List[int] = []
        values: List[int] = []
        offsets: List[int] = []
        last = None
        for key, value in pairs:
            if key != last:
                keys.append(key)
                offsets.append(len(values))
                last = key
            values.append(value)
        offsets.append(len(values))
        return cls(keys, values, offsets)

    def row(self, key: int) -> List[int]:
        """The ascending values of ``key`` (empty when absent)."""
        position = self._rows.get(key)
        if position is None:
            return []
        return self.values[self.offsets[position] : self.offsets[position + 1]]

    def has(self, key: int, value: int) -> bool:
        """Is ``value`` in ``key``'s row?  A row lookup plus a bounded bisect."""
        position = self._rows.get(key)
        if position is None:
            return False
        hi = self.offsets[position + 1]
        at = bisect_left(self.values, value, self.offsets[position], hi)
        return at < hi and self.values[at] == value

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """Every ``(key, value)`` pair, ascending."""
        values, offsets = self.values, self.offsets
        for position, key in enumerate(self.keys):
            for value in values[offsets[position] : offsets[position + 1]]:
                yield key, value

    def patched(self, changes: Dict[int, Dict[int, bool]]) -> "SortedColumn":
        """This column with ``changes`` (key → value → present) applied, in one pass.

        Runs of untouched rows are copied as slices and only a changed row is
        re-sorted, so the result equals a cold build of the patched pairs.
        The key map is shared when no key comes or goes.
        """
        keys: List[int] = []
        values: List[int] = []
        offsets = [0]
        same_keys = True
        start = 0
        for key in sorted(changes):
            at = bisect_left(self.keys, key, start)
            self._copy_rows(start, at, keys, values, offsets)
            found = at < len(self.keys) and self.keys[at] == key
            row = set(self.values[self.offsets[at] : self.offsets[at + 1]]) if found else set()
            for value, present in changes[key].items():
                if present:
                    row.add(value)
                else:
                    row.discard(value)
            if row:
                keys.append(key)
                values.extend(sorted(row))
                offsets.append(len(values))
            same_keys = same_keys and found == bool(row)
            start = at + found
        self._copy_rows(start, len(self.keys), keys, values, offsets)
        return SortedColumn(keys, values, offsets, self._rows if same_keys else None)

    def _copy_rows(
        self, start: int, stop: int, keys: List[int], values: List[int], offsets: List[int]
    ) -> None:
        """Append rows ``start:stop`` of this column to the column being built."""
        if start == stop:
            return
        lo = self.offsets[start]
        shift = len(values) - lo
        keys += self.keys[start:stop]
        values += self.values[lo : self.offsets[stop]]
        bounds = self.offsets[start + 1 : stop + 1]
        offsets += [bound + shift for bound in bounds] if shift else bounds


_EMPTY_COLUMN = SortedColumn([], [], [0])


class EncodedGraph:
    """The dictionary plus one out-column and one in-column per predicate.

    ``out_column(p)`` maps each subject of ``p`` to its ascending objects,
    ``in_column(p)`` each object to its ascending subjects.  Every probe the
    kernel and partial evaluation make reads those columns, against ids from
    :attr:`dictionary`; nothing else is indexed.  The variable-predicate
    (:data:`PREDICATE_ANY`) columns and the sorted vertex ids are derived on
    first use and dropped by a patch.
    """

    __slots__ = ("dictionary", "_out", "_in", "_any", "_sorted_vertex_ids", "_num_triples", "memo")

    def __init__(self, graph: RDFGraph) -> None:
        terms: Set[Term] = set()
        for triple in graph:
            terms.update(triple.as_tuple())
        self.dictionary = TermDictionary(terms)
        id_of = self.dictionary.id_of
        by_predicate: Dict[int, List[Tuple[int, int]]] = {}
        for triple in graph:
            by_predicate.setdefault(id_of(triple.predicate), []).append(
                (id_of(triple.subject), id_of(triple.object))
            )
        self._out: Dict[int, SortedColumn] = {}
        self._in: Dict[int, SortedColumn] = {}
        for predicate in sorted(by_predicate):
            pairs = by_predicate.pop(predicate)
            pairs.sort()
            self._out[predicate] = SortedColumn.from_pairs(pairs)
            self._in[predicate] = SortedColumn.from_pairs(sorted([(o, s) for s, o in pairs]))
        self._any: Optional[Tuple[SortedColumn, SortedColumn]] = None
        self._sorted_vertex_ids: Optional[List[int]] = None
        self._num_triples = len(graph)
        #: Per-id and per-query caches that die with the encoding (ids keep their terms).
        self.memo: Dict[object, dict] = {}

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def out_column(self, predicate_code: int) -> SortedColumn:
        """The subject → objects column of ``predicate_code`` (empty when absent)."""
        if predicate_code >= 0:
            return self._out.get(predicate_code, _EMPTY_COLUMN)
        return self._rollups()[0] if predicate_code == PREDICATE_ANY else _EMPTY_COLUMN

    def in_column(self, predicate_code: int) -> SortedColumn:
        """The object → subjects column of ``predicate_code`` (empty when absent)."""
        if predicate_code >= 0:
            return self._in.get(predicate_code, _EMPTY_COLUMN)
        return self._rollups()[1] if predicate_code == PREDICATE_ANY else _EMPTY_COLUMN

    def _rollups(self) -> Tuple[SortedColumn, SortedColumn]:
        """The :data:`PREDICATE_ANY` out- and in-columns: every label's pairs, merged."""
        if self._any is None:
            out_any, in_any = (
                SortedColumn.from_pairs(sorted({pair for column in columns.values() for pair in column.pairs()}))
                for columns in (self._out, self._in)
            )
            self._any = (out_any, in_any)
        return self._any

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_triples(self) -> int:
        return self._num_triples

    @property
    def sorted_vertex_ids(self) -> List[int]:
        """Every subject/object id in canonical (= candidate sort) order.

        Derived once per graph version: the "all vertices" candidate pool.
        """
        if self._sorted_vertex_ids is None:
            columns = chain(self._out.values(), self._in.values())
            self._sorted_vertex_ids = sorted({key for column in columns for key in column.keys})
        return self._sorted_vertex_ids

    def is_vertex(self, term_id: int) -> bool:
        """Is ``term_id`` a subject or object of some triple?"""
        ids = self.sorted_vertex_ids
        at = bisect_left(ids, term_id)
        return at < len(ids) and ids[at] == term_id

    def iter_triple_ids(self) -> Iterator[Tuple[int, int, int]]:
        """Every triple as an ``(s, p, o)`` id tuple, ascending by ``(p, s, o)``."""
        for p in sorted(self._out):
            for s, o in self._out[p].pairs():
                yield (s, p, o)

    # ------------------------------------------------------------------
    # Kernel probes (rows are ascending id lists)
    # ------------------------------------------------------------------
    def has_edge(self, subject_id: int, predicate_code: int, object_id: int) -> bool:
        """Does the data edge exist?  ``predicate_code`` may be a sentinel.

        :data:`PREDICATE_ANY` matches any label (variable query predicate);
        :data:`PREDICATE_ABSENT` matches nothing.
        """
        return self.out_column(predicate_code).has(subject_id, object_id)

    def subjects_to(self, predicate_code: int, object_id: int) -> List[int]:
        """Ascending ids of subjects with a ``predicate_code`` edge into ``object_id``."""
        return self.in_column(predicate_code).row(object_id)

    def objects_from(self, subject_id: int, predicate_code: int) -> List[int]:
        """Ascending ids of objects reached from ``subject_id`` via ``predicate_code``."""
        return self.out_column(predicate_code).row(subject_id)

    def subjects_of_predicate(self, predicate_code: int) -> List[int]:
        """Ascending ids of all subjects of ``predicate_code`` edges."""
        return self.out_column(predicate_code).keys

    def objects_of_predicate(self, predicate_code: int) -> List[int]:
        """Ascending ids of all objects of ``predicate_code`` edges."""
        return self.in_column(predicate_code).keys

    def has_out_edge(self, subject_id: int, predicate_code: int) -> bool:
        """Does ``subject_id`` have any outgoing edge labelled ``predicate_code``?"""
        return subject_id in self.out_column(predicate_code)._rows

    def has_in_edge(self, object_id: int, predicate_code: int) -> bool:
        """Does ``object_id`` have any incoming edge labelled ``predicate_code``?"""
        return object_id in self.in_column(predicate_code)._rows

    def triple_ids(
        self, subject_id: Optional[int], predicate_code: int, object_id: Optional[int]
    ) -> List[Tuple[int, int, int]]:
        """The stored ``(s, p, o)`` id triples matching a pattern, ascending.

        ``None`` leaves one endpoint open; ``predicate_code`` may be a sentinel
        as in :meth:`has_edge`.  A variable predicate reads every label's row.
        """
        s, p, o = subject_id, predicate_code, object_id
        if p >= 0:
            if s is None:
                return [(s, p, o) for s in self.subjects_to(p, o)]
            if o is None:
                return [(s, p, o) for o in self.objects_from(s, p)]
            return [(s, p, o)] if self.has_edge(s, p, o) else []
        if p != PREDICATE_ANY:
            return []
        if s is None:
            return sorted((s, p, o) for p, column in self._in.items() for s in column.row(o))
        if o is None:
            return sorted((s, p, o) for p, column in self._out.items() for o in column.row(s))
        return [(s, p, o) for p in sorted(self._out) if self._out[p].has(s, o)]

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_ops(self, ops: Iterable[Tuple[str, Triple]]) -> None:
        """Patch the columns for a journal window of graph ops.

        ``ops`` is a list of ``("+"|"-", triple)`` pairs in mutation order,
        as returned by :meth:`RDFGraph.journal_since`.  New terms get fresh
        appended dictionary ids.  Each triple's last op decides its state;
        every predicate whose triples change gets new columns from one
        :meth:`SortedColumn.patched` pass per direction, equal to a cold
        build over the same ids, and every other column stays as it is.
        """
        ensure = self.dictionary.ensure
        final: Dict[Tuple[int, int, int], bool] = {}
        for op, triple in ops:
            final[(ensure(triple.subject), ensure(triple.predicate), ensure(triple.object))] = op == "+"
        out_changes: Dict[int, Dict[int, Dict[int, bool]]] = {}
        in_changes: Dict[int, Dict[int, Dict[int, bool]]] = {}
        for (s, p, o), present in final.items():
            if self.has_edge(s, p, o) != present:
                out_changes.setdefault(p, {}).setdefault(s, {})[o] = present
                in_changes.setdefault(p, {}).setdefault(o, {})[s] = present
                self._num_triples += 1 if present else -1
        for columns, changes in ((self._out, out_changes), (self._in, in_changes)):
            for p, by_key in changes.items():
                column = columns.get(p, _EMPTY_COLUMN).patched(by_key)
                if column.keys:
                    columns[p] = column
                else:
                    del columns[p]
        if out_changes:
            self._any = None
            self._sorted_vertex_ids = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<EncodedGraph terms={len(self.dictionary)} "
            f"predicates={len(self._out)} triples={self._num_triples}>"
        )


#: Process-local count of :class:`EncodedGraph` constructions performed by
#: :func:`encoded_view` (cache misses + version-invalidated rebuilds).  The
#: observability layer exposes it as the ``repro_encoded_graph_rebuilds``
#: gauge; a count that climbs query-over-query means graphs are being
#: mutated (or recreated) between queries and the encoding cache is cold.
_REBUILDS = 0
#: Process-local count of in-place :meth:`EncodedGraph.apply_ops` patches
#: performed by :func:`encoded_view` instead of full rebuilds.  Exposed as
#: the ``repro_encoded_graph_patches`` gauge: with the delta machinery in
#: place, mutations should move this counter, not ``_REBUILDS``.
_PATCHES = 0
_REBUILDS_LOCK = threading.Lock()

#: Serializes cache-miss rebuilds in :func:`encoded_view`: two queries
#: hitting a cold graph concurrently must share one build (and count one
#: rebuild), not race to construct two.  Builds are rare — one per graph
#: version — so a single global lock costs nothing measurable.
_BUILD_LOCK = threading.Lock()


def encoded_rebuilds() -> int:
    """How many ``EncodedGraph`` builds this process has performed so far."""
    with _REBUILDS_LOCK:
        return _REBUILDS


def encoded_patches() -> int:
    """How many in-place encoding patches this process has performed."""
    with _REBUILDS_LOCK:
        return _PATCHES


def patch_encoded_view(
    graph: RDFGraph,
    encoded: EncodedGraph,
    ops: Iterable[Tuple[str, Triple]],
) -> EncodedGraph:
    """Bring ``graph``'s cached encoding up to date by applying ``ops`` directly.

    The delta-application entry point for the cluster/persistence layer:
    ``encoded`` must be the view obtained from :func:`encoded_view` *before*
    the mutations, and ``ops`` the exact op sequence since.  Unlike the lazy
    journal path inside :func:`encoded_view`, this never falls back to a
    rebuild, so the final encoding (including appended dictionary ids) is a
    pure function of (base state, op sequence) — independent of the graph's
    bounded journal and of how the ops were batched.  That purity is what
    lets a replica that replays the same ops from the same base (a reopened
    store file) end up with the bit-identical
    encoding.
    """
    global _PATCHES
    with _BUILD_LOCK:
        cached = getattr(graph, _CACHE_ATTRIBUTE, None)
        if cached is not None and cached[0] == graph.version:
            return cached[1]
        encoded.apply_ops(ops)
        setattr(graph, _CACHE_ATTRIBUTE, (graph.version, encoded))
        with _REBUILDS_LOCK:
            _PATCHES += 1
        return encoded


def encoded_view(graph: RDFGraph) -> EncodedGraph:
    """The (cached) dictionary-encoded view of ``graph``.

    Built lazily on first use and cached on the graph object.  When the
    graph's :attr:`~repro.rdf.graph.RDFGraph.version` moves, the cached
    encoding is *patched in place* from the graph's mutation journal
    (:meth:`RDFGraph.journal_since`); only when the journal window has been
    exceeded — e.g. by a bulk load — does the encoding fall back to a full
    rebuild.
    """
    global _REBUILDS, _PATCHES
    cached = getattr(graph, _CACHE_ATTRIBUTE, None)
    if cached is not None and cached[0] == graph.version:
        return cached[1]
    with _BUILD_LOCK:
        cached = getattr(graph, _CACHE_ATTRIBUTE, None)
        if cached is not None and cached[0] == graph.version:
            return cached[1]
        if cached is not None:
            ops = graph.journal_since(cached[0])
            if ops is not None:
                encoded = cached[1]
                encoded.apply_ops(ops)
                setattr(graph, _CACHE_ATTRIBUTE, (graph.version, encoded))
                with _REBUILDS_LOCK:
                    _PATCHES += 1
                return encoded
        encoded = EncodedGraph(graph)
        setattr(graph, _CACHE_ATTRIBUTE, (graph.version, encoded))
        with _REBUILDS_LOCK:
            _REBUILDS += 1
        return encoded
