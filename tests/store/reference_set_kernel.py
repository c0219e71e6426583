"""The set-based matching kernel, kept as the parity oracle of the test-suite.

Before the sorted-column kernel of :mod:`repro.store.kernel`, the matcher
narrowed candidates with Python *sets* of ids and checked every incident
query edge per candidate.  That path is preserved here — candidate pools
(:func:`set_candidate_ids`), compiled vertices and the per-depth frontier
(:class:`SetRunner`) — so the parity suites can assert that the production
kernel yields the identical match *sequence*, the identical ``search_steps``
and the identical candidate sets.  Its pools are edge support alone, with
no signature prefilter: a self-loop ``?x p ?x`` with a constant ``p`` asks
for an incoming ``p`` edge as well as an outgoing one.  It answers every
probe from hash indexes of its own (:class:`SetIndex`), never from the
encoding's columns.

:class:`SetMatcher` is a :class:`~repro.store.LocalMatcher` driven by this
runner; :func:`set_runner_everywhere` swaps it under every matcher (the
engines' included) for the duration of a block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import IRI, Literal, PatternTerm, Variable
from repro.sparql.query_graph import QueryEdge, QueryGraph
from repro.store import LocalMatcher
from repro.store.encoding import PREDICATE_ANY, EncodedGraph, predicate_code

#: The oracle's name, as it appears in ``LocalMatcher.last_kernel``.
KERNEL_SETS = "sets"

_NOTHING: Set[int] = frozenset()  # type: ignore[assignment]


class SetIndex:
    """The oracle's own hash indexes over an encoding's stored triples.

    Built from :meth:`EncodedGraph.iter_triple_ids` alone (which the patch
    property suite checks against a scan of the graph), so no probe of the
    code under test answers for the oracle.  A variable predicate is the
    code :data:`PREDICATE_ANY`; an absent one finds nothing.
    """

    def __init__(self, encoded: EncodedGraph) -> None:
        #: code -> subject -> objects, and code -> object -> subjects.
        self.out: Dict[int, Dict[int, Set[int]]] = {}
        self.into: Dict[int, Dict[int, Set[int]]] = {}
        for s, p, o in encoded.iter_triple_ids():
            for code in (p, PREDICATE_ANY):
                self.out.setdefault(code, {}).setdefault(s, set()).add(o)
                self.into.setdefault(code, {}).setdefault(o, set()).add(s)
        self.vertices: Set[int] = set(self.out.get(PREDICATE_ANY, {})) | set(self.into.get(PREDICATE_ANY, {}))

    def objects_from(self, subject_id: int, code: int) -> Set[int]:
        return self.out.get(code, {}).get(subject_id, _NOTHING)

    def subjects_to(self, code: int, object_id: int) -> Set[int]:
        return self.into.get(code, {}).get(object_id, _NOTHING)

    def subjects_of(self, code: int) -> Set[int]:
        return set(self.out.get(code, {}))

    def objects_of(self, code: int) -> Set[int]:
        return set(self.into.get(code, {}))

    def has_edge(self, subject_id: int, code: int, object_id: int) -> bool:
        return object_id in self.objects_from(subject_id, code)


# ----------------------------------------------------------------------
# Candidate pools (the set path of compute_candidate_ids)
# ----------------------------------------------------------------------
def set_candidate_ids(
    encoded: EncodedGraph,
    query: QueryGraph,
    relaxed_edges: Optional[Dict[PatternTerm, Set[int]]] = None,
    index: Optional[SetIndex] = None,
) -> Dict[PatternTerm, Set[int]]:
    """Candidate ids for every query vertex, computed on hash sets."""
    index = SetIndex(encoded) if index is None else index
    relaxed_edges = relaxed_edges or {}
    candidates: Dict[PatternTerm, Set[int]] = {}
    for query_vertex in query.vertices:
        relaxed = relaxed_edges.get(query_vertex, set())
        if isinstance(query_vertex, (IRI, Literal)):
            vertex_id = encoded.dictionary.get(query_vertex)
            if vertex_id is not None and vertex_id in index.vertices:
                candidates[query_vertex] = {vertex_id}
            else:
                candidates[query_vertex] = set()
        else:
            candidates[query_vertex] = _variable_candidate_ids(encoded, index, query, query_vertex, relaxed)
    return candidates


def _variable_candidate_ids(
    encoded: EncodedGraph,
    index: SetIndex,
    query: QueryGraph,
    query_vertex: PatternTerm,
    relaxed: Set[int],
) -> Set[int]:
    required_edges = [edge for edge in query.edges_of(query_vertex) if edge.index not in relaxed]
    if not required_edges:
        # Every incident edge was relaxed: any vertex could match.
        return set(index.vertices)
    # Seed with the most selective incident edge to avoid scanning all vertices.
    seed: Optional[Set[int]] = None
    for edge in required_edges:
        matching = _edge_endpoint_ids(encoded, index, edge, query_vertex)
        if seed is None or len(matching) < len(seed):
            seed = matching
        if not seed:
            return set()
    assert seed is not None
    loop_codes = [
        predicate_code(encoded, edge.predicate)
        for edge in required_edges
        if edge.subject == edge.object and not isinstance(edge.predicate, Variable)
    ]
    survivors: Set[int] = set()
    for vertex_id in seed:
        if all(
            _edge_supported(encoded, index, vertex_id, edge, query_vertex)
            for edge in required_edges
        ) and all(index.subjects_to(code, vertex_id) for code in loop_codes):
            survivors.add(vertex_id)
    return survivors


def _edge_endpoint_ids(
    encoded: EncodedGraph, index: SetIndex, edge: QueryEdge, query_vertex: PatternTerm
) -> Set[int]:
    """Ids of data vertices that could sit at ``query_vertex``'s end of ``edge``.

    Returns live index sets — callers only iterate them, never mutate.
    """
    code = predicate_code(encoded, edge.predicate)
    if edge.subject == query_vertex:
        other = edge.object
        if isinstance(other, Variable):
            return index.subjects_of(code)
        other_id = encoded.dictionary.get(other)
        if other_id is None:
            return set()
        return index.subjects_to(code, other_id)
    other = edge.subject
    if isinstance(other, Variable):
        return index.objects_of(code)
    other_id = encoded.dictionary.get(other)
    if other_id is None:
        return set()
    return index.objects_from(other_id, code)


def _edge_supported(
    encoded: EncodedGraph, index: SetIndex, vertex_id: int, edge: QueryEdge, query_vertex: PatternTerm
) -> bool:
    """Does ``vertex_id`` have an incident data edge matching ``edge`` at ``query_vertex``'s end?"""
    code = predicate_code(encoded, edge.predicate)
    if edge.subject == query_vertex:
        other = edge.object
        if isinstance(other, Variable):
            return bool(index.objects_from(vertex_id, code))
        other_id = encoded.dictionary.get(other)
        return other_id is not None and index.has_edge(vertex_id, code, other_id)
    other = edge.subject
    if isinstance(other, Variable):
        return bool(index.subjects_to(code, vertex_id))
    other_id = encoded.dictionary.get(other)
    return other_id is not None and index.has_edge(other_id, code, vertex_id)


# ----------------------------------------------------------------------
# The set runner
# ----------------------------------------------------------------------
class CompiledSetVertex:
    """A compiled vertex of the set path: id-set pool plus integer edge tuples."""

    __slots__ = ("index", "pool", "sorted_pool", "narrow_edges", "check_edges")

    def __init__(
        self,
        index: int,
        pool: Set[int],
        narrow_edges: List[Tuple[bool, int, int]],
        check_edges: List[Tuple[bool, int, bool, int, int]],
    ) -> None:
        self.index = index
        self.pool = pool
        #: Ids sort exactly like the old ``(type, n3)`` candidate order, so
        #: this sort happens once per query instead of once per search step.
        self.sorted_pool = sorted(pool)
        #: ``(vertex_is_subject, predicate_code, other_vertex_index)`` per
        #: incident non-loop edge, in query-edge order.
        self.narrow_edges = narrow_edges
        #: ``(subject_is_self, subject_index, object_is_self, object_index,
        #: predicate_code)`` per incident edge (loops included).
        self.check_edges = check_edges


class SetRunner:
    """The reference kernel: hash-set narrowing + per-edge probes.

    Same three steps as :class:`repro.store.kernel.ArrayRunner` —
    :meth:`compute_pools`, :meth:`compile`, :meth:`frontier` — so a
    :class:`LocalMatcher` can drive either.
    """

    kernel = KERNEL_SETS

    def __init__(self, encoded: EncodedGraph) -> None:
        self.encoded = encoded
        self.index = SetIndex(encoded)
        #: Candidate-pool/frontier intersection operations performed so far.
        self.intersections = 0

    def compute_pools(self, query, relaxed_edges=None):
        return set_candidate_ids(self.encoded, query, relaxed_edges, self.index)

    def compile(self, query, order, pools):
        compiled: List[CompiledSetVertex] = []
        encoded = self.encoded
        for vertex in order:
            vertex_index = query.vertex_index(vertex)
            narrow_edges: List[Tuple[bool, int, int]] = []
            check_edges: List[Tuple[bool, int, bool, int, int]] = []
            for edge in query.edges_of(vertex):
                code = predicate_code(encoded, edge.predicate)
                subject_index = query.vertex_index(edge.subject)
                object_index = query.vertex_index(edge.object)
                check_edges.append(
                    (
                        edge.subject == vertex,
                        subject_index,
                        edge.object == vertex,
                        object_index,
                        code,
                    )
                )
                other = edge.other_endpoint(vertex)
                if other == vertex:
                    continue  # self-loop: no already-assigned "other" side
                if edge.subject == vertex:
                    narrow_edges.append((True, code, object_index))
                else:
                    narrow_edges.append((False, code, subject_index))
            compiled.append(
                CompiledSetVertex(vertex_index, pools[vertex], narrow_edges, check_edges)
            )
        return compiled

    def frontier(self, vertex, assignment):
        index = self.index
        narrowed: Optional[Set[int]] = None
        for is_subject, code, other_index in vertex.narrow_edges:
            other_value = assignment[other_index]
            if other_value is None:
                continue
            if is_subject:
                reachable = index.subjects_to(code, other_value)
            else:
                reachable = index.objects_from(other_value, code)
            if narrowed is None:
                narrowed = reachable
            else:
                narrowed = narrowed & reachable
                self.intersections += 1
            if not narrowed:
                return [], 0
        if narrowed is None:
            ordered: Sequence[int] = vertex.sorted_pool
        else:
            narrowed = narrowed & vertex.pool
            self.intersections += 1
            if not narrowed:
                return [], 0
            ordered = sorted(narrowed)
        tried = len(ordered)
        survivors = [
            candidate
            for candidate in ordered
            if self._consistent(vertex, candidate, assignment)
        ]
        return survivors, tried

    def _consistent(self, vertex, candidate: int, assignment) -> bool:
        """Check every query edge between ``vertex`` and determined vertices."""
        has_edge = self.index.has_edge
        for subject_is_self, subject_index, object_is_self, object_index, code in (
            vertex.check_edges
        ):
            subject_value = candidate if subject_is_self else assignment[subject_index]
            object_value = candidate if object_is_self else assignment[object_index]
            if subject_value is None or object_value is None:
                continue
            if not has_edge(subject_value, code, object_value):
                return False
        return True


class SetMatcher(LocalMatcher):
    """A :class:`LocalMatcher` whose searches run on :class:`SetRunner`."""

    runner_class = SetRunner


@contextmanager
def set_runner_everywhere():
    """Run every :class:`LocalMatcher` on :class:`SetRunner` (a class attribute swap)."""
    production = LocalMatcher.runner_class
    LocalMatcher.runner_class = SetRunner
    try:
        yield
    finally:
        LocalMatcher.runner_class = production
