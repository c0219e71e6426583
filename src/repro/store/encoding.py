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
  Per id it also holds what the wire accounting reads: the UTF-8 length of
  the term's N3 key and its stage-1 bit position per vector width.
* :class:`SortedColumn` is one predicate's adjacency in one direction in CSR
  form: ascending keys, one flat list of ascending rows, offset bounds.
* :class:`EncodedGraph` is the dictionary plus an out-column (subject →
  objects) and an in-column (object → subjects) per predicate, all built in
  one pass: encode the triples, sort them by predicate, cut them into rows.
  Every probe reads those columns; :meth:`EncodedGraph.apply_ops` patches
  only the touched predicates' columns.
* A cluster has **one** dictionary (:attr:`Cluster.dictionary
  <repro.distributed.cluster.Cluster.dictionary>`), built from its base terms:
  every site's encoding and the master encoding are columns over it, so a
  term has one id everywhere, from a site's columns to the coordinator's
  joins.  A site's ids are a subset of one order, so sorting them still sorts
  candidates.  An encoding built without a dictionary gets its own.

Decoding happens only at result boundaries (answer rows, the decoded views of
local partial matches); everything inside the kernel and the coordinator's
joins is ints.
"""

from __future__ import annotations

import hashlib
import secrets
import threading
from bisect import bisect_left
from itertools import chain
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..rdf.terms import IRI, Node, PatternTerm, Term, Variable
from ..rdf.triples import Triple

#: A triple as ``(subject, predicate, object)`` ids of one dictionary.
IdTriple = Tuple[int, int, int]

#: Predicate code of a query edge whose predicate is a variable ("any label").
PREDICATE_ANY = -1
#: Predicate code of a constant query predicate that cannot match any data
#: edge (the IRI is absent from the graph, or the term is not an IRI at all).
PREDICATE_ABSENT = -2

#: :attr:`EncodedGraph.memo` key of the candidate pools by variable signature
#: (:class:`repro.store.kernel.PoolCache`): ints only; a patch drops those
#: that read what it changed.
SIGNATURE_POOLS = "signature_pools"


def term_sort_key(term: Term) -> Tuple[str, str]:
    """The canonical total order on terms: by type name, then surface syntax.

    This is the order the object-path matcher sorted candidate pools with;
    the dictionary assigns ids in this order, which is what makes integer
    order and candidate order the same thing.
    """
    return (type(term).__name__, term.n3())


def key_bit(key: str, width: int) -> int:
    """The stage-1 bit of the term whose N3 key is ``key`` in a ``width``-bit vector."""
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % width


def predicate_code(dictionary: "TermDictionary", predicate: PatternTerm) -> int:
    """The kernel code of a query-edge predicate.

    Variables map to :data:`PREDICATE_ANY`; constant IRIs map to their
    dictionary id, or :data:`PREDICATE_ABSENT` when the dictionary does not
    hold the label (no data edge can match).  Non-IRI constants cannot label
    data edges, so they are absent by construction.
    """
    if isinstance(predicate, Variable):
        return PREDICATE_ANY
    if not isinstance(predicate, IRI):
        return PREDICATE_ABSENT
    return dictionary.get(predicate, PREDICATE_ABSENT)


class TermDictionary:
    """A bidirectional Node ↔ dense-int-id mapping for one graph.

    Ids are dense (``0..len-1``) and assigned in :func:`term_sort_key` order
    over *all* terms of the graph — vertices and predicates alike — so any
    subset of ids sorts exactly like the corresponding terms.  Terms added
    later by :meth:`ensure` get the next ids.

    :attr:`key_bytes` is the per-id UTF-8 length of the term's N3 key — what a
    message's term table pays for it — and :meth:`bit_positions` the per-id
    stage-1 bit positions at one vector width.  :attr:`space` names the id
    space: fresh per dictionary, shared by the :meth:`received` parts cut
    from it, so two id sequences are comparable exactly when their spaces are
    equal.
    """

    __slots__ = ("_ids", "_terms", "key_bytes", "_bit_positions", "space")

    def __init__(self, terms: Iterable[Term]) -> None:
        #: Random, so a part unpickled in another process still names its source.
        self.space: str = secrets.token_hex(8)
        decorated = sorted((term_sort_key(term), term) for term in set(terms))
        self._terms: List[Term] = [term for _, term in decorated]
        self._ids: Dict[Term, int] = {term: position for position, term in enumerate(self._terms)}
        #: Id -> bytes of the UTF-8 text of the term's N3 key.
        self.key_bytes: List[int] = [len(key[1].encode("utf-8")) for key, _ in decorated]
        self._bit_positions: Dict[int, _BitPositions] = {}

    @classmethod
    def received(cls, entries: Iterable[Tuple[int, Term]], space: str) -> "TermDictionary":
        """The part of dictionary ``space`` a message carries: these ids, with their terms.

        Read-only (no :meth:`ensure`); ids keep their values, so what was
        encoded against the full dictionary decodes and sizes the same here.
        """
        received = cls.__new__(cls)
        received.space = space
        received._terms = dict(entries)
        received._ids = {term: term_id for term_id, term in received._terms.items()}
        received.key_bytes = {term_id: len(term.n3().encode("utf-8")) for term_id, term in received._terms.items()}
        received._bit_positions = {}
        return received

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def id_of(self, term: Term) -> int:
        """The id of ``term``; raises ``KeyError`` for unknown terms."""
        return self._ids[term]

    def get(self, term: Term, default: Optional[int] = None) -> Optional[int]:
        """The id of ``term``, or ``default`` when the graph never saw it."""
        return self._ids.get(term, default)

    def term_of(self, term_id: int) -> Term:
        """The term behind ``term_id`` (dense ids make this a list lookup)."""
        return self._terms[term_id]

    def n3_of(self, term_id: int) -> str:
        """The N3 text of ``term_id``: its key on the wire."""
        return self._terms[term_id].n3()

    def bit_positions(self, width: int) -> Dict[int, int]:
        """Id -> stage-1 bit position in a ``width``-bit candidate vector.

        A table filled on first lookup of each id (:func:`key_bit` of its N3
        key), kept for the dictionary's lifetime.
        """
        positions = self._bit_positions.get(width)
        if positions is None:
            # Concurrent queries share the dictionary: racing first lookups
            # get one table, and racing fills write equal values.
            positions = self._bit_positions.setdefault(width, _BitPositions(self, width))
        return positions

    def ensure_triple(self, triple: Triple) -> IdTriple:
        """The ids of ``triple``'s terms, appending fresh ones for unseen terms (:meth:`ensure`)."""
        ensure = self.ensure
        return (ensure(triple.subject), ensure(triple.predicate), ensure(triple.object))

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
        making every replica of a cluster append the new terms of the
        identical op sequence in the identical order, so appended ids agree
        everywhere (see docs/persistence.md).
        """
        existing = self._ids.get(term)
        if existing is not None:
            return existing
        term_id = len(self._terms)
        self._terms.append(term)
        self.key_bytes.append(len(term.n3().encode("utf-8")))
        self._ids[term] = term_id
        return term_id


class _BitPositions(dict):
    """One width's id -> stage-1 bit table of a :class:`TermDictionary`, filled on a miss."""

    __slots__ = ("_dictionary", "_width")

    def __init__(self, dictionary: TermDictionary, width: int) -> None:
        super().__init__()
        self._dictionary = dictionary
        self._width = width

    def __missing__(self, term_id: int) -> int:
        position = self[term_id] = key_bit(self._dictionary.n3_of(term_id), self._width)
        return position


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

    def patched(self, changes: Dict[int, Dict[int, bool]]) -> Tuple["SortedColumn", bool]:
        """This column with ``changes`` (key → value → present) applied, in one
        pass, and whether its key list stayed the same.

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
        return SortedColumn(keys, values, offsets, self._rows if same_keys else None), same_keys

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
    first use; a patch drops the former and edits the latter in place.

    ``triples`` is any collection of distinct triples — an
    :class:`~repro.rdf.graph.RDFGraph` or a fragment's edge set; it is not
    kept.  ``dictionary`` is the one the ids come from (a cluster's, which
    must already hold every term of ``triples``); without one the encoding
    builds its own over ``triples``.  :meth:`from_ids` builds one straight
    from id triples, as a site's is.
    """

    __slots__ = ("dictionary", "_out", "_in", "_any", "_sorted_vertex_ids", "_num_triples", "memo")

    def __init__(self, triples: Collection[Triple], dictionary: Optional[TermDictionary] = None) -> None:
        if dictionary is None:
            dictionary = TermDictionary(term for triple in triples for term in triple.as_tuple())
        id_of = dictionary.id_of
        self._build(dictionary, ((id_of(t.subject), id_of(t.predicate), id_of(t.object)) for t in triples))

    @classmethod
    def from_ids(cls, triples: Iterable[IdTriple], dictionary: TermDictionary) -> "EncodedGraph":
        """The encoding of distinct ``(s, p, o)`` id triples over ``dictionary``: nothing is decoded."""
        encoded = cls.__new__(cls)
        encoded._build(dictionary, triples)
        return encoded

    def _build(self, dictionary: TermDictionary, triples: Iterable[IdTriple]) -> None:
        global _REBUILDS
        self.dictionary = dictionary
        by_predicate: Dict[int, List[Tuple[int, int]]] = {}
        for s, p, o in triples:
            by_predicate.setdefault(p, []).append((s, o))
        self._out: Dict[int, SortedColumn] = {}
        self._in: Dict[int, SortedColumn] = {}
        self._num_triples = 0
        for predicate in sorted(by_predicate):
            pairs = by_predicate.pop(predicate)
            pairs.sort()
            self._num_triples += len(pairs)
            self._out[predicate] = SortedColumn.from_pairs(pairs)
            self._in[predicate] = SortedColumn.from_pairs(sorted([(o, s) for s, o in pairs]))
        self._any: Optional[Tuple[SortedColumn, SortedColumn]] = None
        self._sorted_vertex_ids: Optional[List[int]] = None
        #: Per-id caches (ids keep their terms) and the pools by signature
        #: (:data:`SIGNATURE_POOLS`, dropped by a patch that changes what they
        #: read); all die with the encoding.
        self.memo: Dict[object, dict] = {}
        with _REBUILDS_LOCK:
            _REBUILDS += 1

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

        Derived on first use after a build; once built, a patch edits it in
        place at the changed triples' endpoints.
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

    def predicate_ids(self) -> List[int]:
        """The ids of every predicate that labels a stored triple, ascending."""
        return sorted(self._out)

    def iter_triple_ids(self) -> Iterator[Tuple[int, int, int]]:
        """Every triple as an ``(s, p, o)`` id tuple, ascending by ``(p, s, o)``."""
        for p in self.predicate_ids():
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
    def apply_ops(self, ops: Iterable[Tuple[str, IdTriple]]) -> None:
        """Patch the columns for a window of ``("+"|"-", (s, p, o))`` id ops.

        ``ops`` are in mutation order, over ids :attr:`dictionary` already
        holds (:meth:`TermDictionary.ensure_triple`).  Each triple's last op
        decides its state; every
        predicate whose triples change gets new columns from one
        :meth:`SortedColumn.patched` pass per direction, equal to a cold
        build over the same ids, and every other column stays as it is.
        The pools of :attr:`memo` that read a changed row or key list are
        dropped (:meth:`~repro.store.kernel.PoolCache.drop_stale`); every
        other stays.  A built :attr:`sorted_vertex_ids`
        is edited in place to equal a cold build's; an unbuilt one stays unbuilt.
        """
        global _PATCHES
        with _REBUILDS_LOCK:
            _PATCHES += 1
        final = {ids: op == "+" for op, ids in ops}
        # Per direction (out, in): predicate -> key -> value -> present.
        changes: Tuple[Dict[int, Dict[int, Dict[int, bool]]], ...] = ({}, {})
        # Endpoints of changed triples: True once one of them is added.
        endpoints: Dict[int, bool] = {}
        for (s, p, o), present in final.items():
            if self.has_edge(s, p, o) != present:
                changes[0].setdefault(p, {}).setdefault(s, {})[o] = present
                changes[1].setdefault(p, {}).setdefault(o, {})[s] = present
                self._num_triples += 1 if present else -1
                endpoints[s] = endpoints.get(s, False) or present
                endpoints[o] = endpoints.get(o, False) or present
        # (direction, predicate) of each key list a key came to or left.
        new_keys: Set[Tuple[int, int]] = set()
        for direction, columns in enumerate((self._out, self._in)):
            for p, by_key in changes[direction].items():
                column, same_keys = columns.get(p, _EMPTY_COLUMN).patched(by_key)
                if not same_keys:
                    new_keys.add((direction, p))
                if column.keys:
                    columns[p] = column
                else:
                    del columns[p]
        if changes[0]:
            self._any = None
            if self._sorted_vertex_ids is not None:
                self._patch_vertex_ids(self._sorted_vertex_ids, endpoints)
            pools = self.memo.get(SIGNATURE_POOLS)
            if pools:
                pools.drop_stale(changes, new_keys)

    def _patch_vertex_ids(self, vertices: List[int], endpoints: Dict[int, bool]) -> None:
        """Insert or delete each changed triple's endpoint at its bisect position in
        ``vertices``, as the patched columns still hold a row for it or not."""
        columns = (*self._out.values(), *self._in.values())
        for vertex, added in endpoints.items():
            present = added or any(vertex in column._rows for column in columns)
            at = bisect_left(vertices, vertex)
            listed = at < len(vertices) and vertices[at] == vertex
            if present and not listed:
                vertices.insert(at, vertex)
            elif listed and not present:
                del vertices[at]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<EncodedGraph terms={len(self.dictionary)} "
            f"predicates={len(self._out)} triples={self._num_triples}>"
        )


#: Process-local count of :class:`EncodedGraph` constructions, wherever they
#: happen.  The observability layer exposes it as the
#: ``repro_encoded_graph_rebuilds`` gauge: sites build theirs once and the
#: cluster its master encoding on first use, so a count that climbs
#: query-over-query means encodings are being rebuilt.
_REBUILDS = 0
#: Process-local count of :meth:`EncodedGraph.apply_ops` patches.  Exposed as
#: the ``repro_encoded_graph_patches`` gauge: updates move this counter, not
#: ``_REBUILDS``.
_PATCHES = 0
_REBUILDS_LOCK = threading.Lock()


def encoded_rebuilds() -> int:
    """How many ``EncodedGraph`` builds this process has performed so far."""
    with _REBUILDS_LOCK:
        return _REBUILDS


def encoded_patches() -> int:
    """How many in-place encoding patches this process has performed."""
    with _REBUILDS_LOCK:
        return _PATCHES
