"""Dictionary encoding: the integer substrate of the matching kernel.

Real RDF stores (S2RDF, gStore) dictionary-encode terms into dense integer
ids so that the join/matching kernel runs on machine integers instead of
term objects.  This module is that layer for the reproduction:

* :class:`TermDictionary` maps every term of one graph (vertices *and*
  predicates) to a dense id.  Ids are assigned in the total order
  ``(type name, n3 text)`` — exactly the order the matcher has always used
  to sort candidate pools — so **sorting ids is sorting candidates**: the
  backtracking search stays bit-for-bit deterministic (same answers, same
  ``search_steps``) while every per-step ``node.n3()`` sort disappears.
* :class:`EncodedGraph` holds the integer permutation indexes
  (``spo``: s→p→{o}, ``pos``: p→o→{s}, ``osp``: o→s→{p}) plus per-vertex
  neighbour sets, giving the matcher O(1) set-membership edge probes.
* :func:`encoded_view` caches one :class:`EncodedGraph` per graph, keyed on
  :attr:`~repro.rdf.graph.RDFGraph.version`, so the encoding is built
  lazily, reused across queries, and rebuilt only after a mutation —
  the same lifecycle as the sorted columns and planner statistics.

Decoding happens only at result boundaries (bindings, candidate sets handed
to the distributed layers); everything inside the kernel is ints.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..rdf.graph import RDFGraph
from ..rdf.terms import IRI, Node, PatternTerm, Term, Variable
from ..rdf.triples import Triple

#: Predicate code of a query edge whose predicate is a variable ("any label").
PREDICATE_ANY = -1
#: Predicate code of a constant query predicate that cannot match any data
#: edge (the IRI is absent from the graph, or the term is not an IRI at all).
PREDICATE_ABSENT = -2

_EMPTY_DICT: Dict[int, Set[int]] = {}
_EMPTY_SET: Set[int] = set()

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


class EncodedGraph:
    """Integer adjacency indexes over one :class:`~repro.rdf.graph.RDFGraph`.

    All probes the matching kernel performs — "does edge (s, p, o) exist",
    "which subjects reach object o via p", "which objects does s reach via
    p" — are O(1) dictionary/set lookups here, against ids from
    :attr:`dictionary`.
    """

    __slots__ = (
        "dictionary",
        "_spo",
        "_pos",
        "_osp",
        "_out_nbrs",
        "_in_nbrs",
        "_p_subjects",
        "_p_objects",
        "_all_subjects",
        "_all_objects",
        "_vertex_ids",
        "_sorted_vertex_ids",
        "_num_triples",
        "_kernel_adjacency",
        "memo",
    )

    def __init__(self, graph: RDFGraph) -> None:
        terms: Set[Term] = set()
        for triple in graph:
            terms.add(triple.subject)
            terms.add(triple.predicate)
            terms.add(triple.object)
        self.dictionary = TermDictionary(terms)
        id_of = self.dictionary.id_of
        spo: Dict[int, Dict[int, Set[int]]] = {}
        pos: Dict[int, Dict[int, Set[int]]] = {}
        osp: Dict[int, Dict[int, Set[int]]] = {}
        out_nbrs: Dict[int, Set[int]] = {}
        in_nbrs: Dict[int, Set[int]] = {}
        p_subjects: Dict[int, Set[int]] = {}
        p_objects: Dict[int, Set[int]] = {}
        for triple in graph:
            s, p, o = id_of(triple.subject), id_of(triple.predicate), id_of(triple.object)
            spo.setdefault(s, {}).setdefault(p, set()).add(o)
            pos.setdefault(p, {}).setdefault(o, set()).add(s)
            osp.setdefault(o, {}).setdefault(s, set()).add(p)
            out_nbrs.setdefault(s, set()).add(o)
            in_nbrs.setdefault(o, set()).add(s)
            p_subjects.setdefault(p, set()).add(s)
            p_objects.setdefault(p, set()).add(o)
        self._spo = spo
        self._pos = pos
        self._osp = osp
        self._out_nbrs = out_nbrs
        self._in_nbrs = in_nbrs
        self._p_subjects = p_subjects
        self._p_objects = p_objects
        self._all_subjects: Set[int] = set(out_nbrs)
        self._all_objects: Set[int] = set(in_nbrs)
        self._vertex_ids: Set[int] = self._all_subjects | self._all_objects
        # Ids are assigned in candidate-sort order, so this is the "all
        # vertices" candidate pool, pre-sorted once at encode time.  It is
        # recomputed lazily after in-place patches (apply_ops sets it None).
        self._sorted_vertex_ids: Optional[Tuple[int, ...]] = tuple(
            sorted(self._vertex_ids)
        )
        self._num_triples = len(graph)
        # The sorted-column adjacency cache, attached lazily by
        # repro.store.kernel.adjacency_view.  Kept here (not in a
        # module-level WeakValue map) so the cache dies with the encoding
        # and per-predicate invalidation in apply_ops stays a local call.
        self._kernel_adjacency: Optional[object] = None
        #: Per-id and per-query caches that die with the encoding (ids keep their terms).
        self.memo: Dict[object, dict] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_triples(self) -> int:
        return self._num_triples

    @property
    def vertex_ids(self) -> Set[int]:
        """Ids of every subject/object vertex (predicates excluded)."""
        return self._vertex_ids

    @property
    def sorted_vertex_ids(self) -> Tuple[int, ...]:
        """All vertex ids in canonical (= candidate sort) order."""
        if self._sorted_vertex_ids is None:
            self._sorted_vertex_ids = tuple(sorted(self._vertex_ids))
        return self._sorted_vertex_ids

    def is_vertex(self, term_id: int) -> bool:
        """Is ``term_id`` a subject or object of some triple?"""
        return term_id in self._vertex_ids

    def iter_triple_ids(self) -> Iterator[Tuple[int, int, int]]:
        """Every triple as an ``(s, p, o)`` id tuple (index order, not sorted)."""
        for s, by_predicate in self._spo.items():
            for p, objects in by_predicate.items():
                for o in objects:
                    yield (s, p, o)

    # ------------------------------------------------------------------
    # Kernel probes (all O(1) dictionary/set lookups)
    # ------------------------------------------------------------------
    def has_edge(self, subject_id: int, predicate_code: int, object_id: int) -> bool:
        """Does the data edge exist?  ``predicate_code`` may be a sentinel.

        :data:`PREDICATE_ANY` matches any label (variable query predicate);
        :data:`PREDICATE_ABSENT` matches nothing.
        """
        if predicate_code >= 0:
            return object_id in self._spo.get(subject_id, _EMPTY_DICT).get(
                predicate_code, _EMPTY_SET
            )
        if predicate_code == PREDICATE_ANY:
            return subject_id in self._osp.get(object_id, _EMPTY_DICT)
        return False

    def subjects_to(self, predicate_code: int, object_id: int) -> Set[int]:
        """Ids of subjects with an edge labelled ``predicate_code`` into ``object_id``."""
        if predicate_code >= 0:
            return self._pos.get(predicate_code, _EMPTY_DICT).get(object_id, _EMPTY_SET)
        if predicate_code == PREDICATE_ANY:
            return self._in_nbrs.get(object_id, _EMPTY_SET)
        return _EMPTY_SET

    def objects_from(self, subject_id: int, predicate_code: int) -> Set[int]:
        """Ids of objects reached from ``subject_id`` via ``predicate_code``."""
        if predicate_code >= 0:
            return self._spo.get(subject_id, _EMPTY_DICT).get(predicate_code, _EMPTY_SET)
        if predicate_code == PREDICATE_ANY:
            return self._out_nbrs.get(subject_id, _EMPTY_SET)
        return _EMPTY_SET

    def subjects_of_predicate(self, predicate_code: int) -> Set[int]:
        """Ids of all subjects of edges labelled ``predicate_code``."""
        if predicate_code >= 0:
            return self._p_subjects.get(predicate_code, _EMPTY_SET)
        if predicate_code == PREDICATE_ANY:
            return self._all_subjects
        return _EMPTY_SET

    def objects_of_predicate(self, predicate_code: int) -> Set[int]:
        """Ids of all objects of edges labelled ``predicate_code``."""
        if predicate_code >= 0:
            return self._p_objects.get(predicate_code, _EMPTY_SET)
        if predicate_code == PREDICATE_ANY:
            return self._all_objects
        return _EMPTY_SET

    def has_out_edge(self, subject_id: int, predicate_code: int) -> bool:
        """Does ``subject_id`` have any outgoing edge labelled ``predicate_code``?"""
        if predicate_code >= 0:
            return predicate_code in self._spo.get(subject_id, _EMPTY_DICT)
        if predicate_code == PREDICATE_ANY:
            return subject_id in self._out_nbrs
        return False

    def has_in_edge(self, object_id: int, predicate_code: int) -> bool:
        """Does ``object_id`` have any incoming edge labelled ``predicate_code``?"""
        if predicate_code >= 0:
            return object_id in self._pos.get(predicate_code, _EMPTY_DICT)
        if predicate_code == PREDICATE_ANY:
            return object_id in self._in_nbrs
        return False

    def triple_ids(
        self, subject_id: Optional[int], predicate_code: int, object_id: Optional[int]
    ) -> List[Tuple[int, int, int]]:
        """The stored ``(s, p, o)`` id triples matching a pattern, ascending.

        ``None`` leaves one endpoint open; ``predicate_code`` may be a sentinel
        as in :meth:`has_edge`.  The order never depends on set iteration.
        """
        s, p, o = subject_id, predicate_code, object_id
        if p == PREDICATE_ABSENT:
            return []
        if s is None:
            if p >= 0:
                return [(s, p, o) for s in sorted(self.subjects_to(p, o))]
            by_subject = self._osp.get(o, _EMPTY_DICT)
            return [(s, p, o) for s in sorted(by_subject) for p in sorted(by_subject[s])]
        by_predicate = self._spo.get(s, _EMPTY_DICT)
        if o is None:
            labels = (p,) if p >= 0 else sorted(by_predicate)
            return [(s, p, o) for p in labels for o in sorted(by_predicate.get(p, _EMPTY_SET))]
        if p >= 0:
            return [(s, p, o)] if o in by_predicate.get(p, _EMPTY_SET) else []
        return [(s, p, o) for p in sorted(self._osp.get(o, _EMPTY_DICT).get(s, _EMPTY_SET))]

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_ops(self, ops: Iterable[Tuple[str, Triple]]) -> None:
        """Patch the indexes in place for a journal window of graph ops.

        ``ops`` is a list of ``("+"|"-", triple)`` pairs in mutation order,
        as returned by :meth:`RDFGraph.journal_since`.  New terms get fresh
        appended dictionary ids; removals scrub empty inner containers so a
        patched encoding answers every probe exactly like a cold rebuild of
        the same triples would.
        """
        ensure = self.dictionary.ensure
        touched_predicates: Set[int] = set()
        for op, triple in ops:
            s = ensure(triple.subject)
            p = ensure(triple.predicate)
            o = ensure(triple.object)
            touched_predicates.add(p)
            if op == "+":
                self._add_ids(s, p, o)
            else:
                self._remove_ids(s, p, o)
        self._sorted_vertex_ids = None
        # Drop only the mutated predicates' sorted columns; every other
        # kernel column stays warm across the patch.
        if self._kernel_adjacency is not None:
            self._kernel_adjacency.invalidate(touched_predicates)

    def _add_ids(self, s: int, p: int, o: int) -> None:
        self._spo.setdefault(s, {}).setdefault(p, set()).add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
        self._out_nbrs.setdefault(s, set()).add(o)
        self._in_nbrs.setdefault(o, set()).add(s)
        self._p_subjects.setdefault(p, set()).add(s)
        self._p_objects.setdefault(p, set()).add(o)
        self._all_subjects.add(s)
        self._all_objects.add(o)
        self._vertex_ids.add(s)
        self._vertex_ids.add(o)
        self._num_triples += 1

    def _remove_ids(self, s: int, p: int, o: int) -> None:
        objects = self._spo[s][p]
        objects.discard(o)
        if not objects:
            del self._spo[s][p]
            if not self._spo[s]:
                del self._spo[s]
        subjects = self._pos[p][o]
        subjects.discard(s)
        if not subjects:
            del self._pos[p][o]
            if not self._pos[p]:
                del self._pos[p]
        labels = self._osp[o][s]
        labels.discard(p)
        if not labels:
            del self._osp[o][s]
            if not self._osp[o]:
                del self._osp[o]
            # The last (s, ?, o) edge is gone: drop the neighbour links.
            out = self._out_nbrs[s]
            out.discard(o)
            if not out:
                del self._out_nbrs[s]
                self._all_subjects.discard(s)
            into = self._in_nbrs[o]
            into.discard(s)
            if not into:
                del self._in_nbrs[o]
                self._all_objects.discard(o)
        if p not in self._spo.get(s, _EMPTY_DICT):
            subjects_of_p = self._p_subjects.get(p)
            if subjects_of_p is not None:
                subjects_of_p.discard(s)
                if not subjects_of_p:
                    del self._p_subjects[p]
        if o not in self._pos.get(p, _EMPTY_DICT):
            objects_of_p = self._p_objects.get(p)
            if objects_of_p is not None:
                objects_of_p.discard(o)
                if not objects_of_p:
                    del self._p_objects[p]
        for vertex in (s, o):
            if vertex not in self._out_nbrs and vertex not in self._in_nbrs:
                self._vertex_ids.discard(vertex)
        self._num_triples -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<EncodedGraph terms={len(self.dictionary)} "
            f"vertices={len(self._vertex_ids)} triples={self._num_triples}>"
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
