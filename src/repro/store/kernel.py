"""The matching kernel: merge-join intersection over sorted columns.

The matcher searches on dense integer ids; this module supplies the
substrate under that search: flat sorted columns (contiguous value lists
with per-row offset bounds) over which candidate narrowing becomes
galloping ``bisect`` merge-join intersection instead of per-element hash
probes.  :class:`ArrayRunner` is the one kernel (named ``python`` in traces
and result metadata); the hash-set path it replaced survives only as the
parity oracle of the test-suite.  Both yield the identical match *sequence*
and the identical ``search_steps`` counter (see ``docs/performance.md`` for
why the decomposition is exact).

An *implied* variable's frontier is its neighbours' rows alone, as in Leapfrog
Triejoin (Veldhuizen, ICDT 2014); pools are cached by signature (:func:`query_pools`).

The sorted columns are the :class:`~repro.store.encoding.EncodedGraph`'s
own: built with the encoding, and replaced *per predicate* when
``apply_ops`` patches it — an incremental mutation touches only the mutated
predicates' columns, everything else stays as it is.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..rdf.terms import IRI, BlankNode, Literal, PatternTerm, Variable
from ..sparql.query_graph import QueryEdge, QueryGraph
from .encoding import PREDICATE_ANY, SIGNATURE_POOLS, EncodedGraph, predicate_code

#: The sorted-column kernel's name, as recorded in traces and result metadata.
KERNEL_PYTHON = "python"


def resolve_kernel(name: None = None) -> str:
    """The matching kernel's name (there is one: :data:`KERNEL_PYTHON`)."""
    return KERNEL_PYTHON


# ----------------------------------------------------------------------
# Compiled query vertices
# ----------------------------------------------------------------------
class CompiledArrayVertex:
    """A query vertex compiled for the sorted-column kernel.

    The pool is already in id (= candidate) order — pools come out of
    :meth:`ArrayRunner.compute_pools` sorted.  Narrowing carries only the
    non-loop incident edges, pre-resolved to their adjacency columns; the
    only residual per-candidate checks are self-loops: a non-loop edge
    toward an *assigned* neighbour is enforced by intersecting that
    neighbour's adjacency row into the frontier, and an edge toward an
    unassigned neighbour is checked when that neighbour's own frontier
    narrows through this vertex — exactly the cases the set path's
    consistency check covers.
    """

    __slots__ = ("index", "pool_list", "narrow_columns", "loop_codes", "implied")

    def __init__(
        self,
        index: int,
        pool_list: List[int],
        narrow_columns: List[Tuple[Dict[int, int], List[int], List[int], int]],
        loop_codes: List[int],
        implied: bool,
    ) -> None:
        self.index = index
        self.pool_list = pool_list
        #: ``(row index, offsets, values, other_vertex_index)`` per incident
        #: non-loop edge — the internals of the adjacency column whose row at
        #: the other endpoint's assignment narrows this vertex's frontier,
        #: flattened so the per-depth hot loop runs on plain dict/list
        #: lookups.  A column is never mutated (a patch replaces it), so
        #: caching its internals here is safe.
        self.narrow_columns = narrow_columns
        self.loop_codes = loop_codes
        self.implied = implied


# ----------------------------------------------------------------------
# The match runner
# ----------------------------------------------------------------------
class ArrayRunner:
    """One ``find_matches`` call's kernel state (never shared across calls).

    The matcher drives three steps: :meth:`compute_pools` (per-vertex
    candidate pools, sorted in id order), :meth:`compile` (query vertices to
    integer tuples in visit order), and :meth:`frontier` (the batched
    candidate list for one search depth).

    Candidate pools and frontiers are sorted lists; narrowing is a
    merge-join over the adjacency rows of already-assigned neighbours (plus
    the pool itself), smallest row driving.  Because every non-loop incident
    edge toward an assigned vertex participates in the merge, the only
    residual per-candidate check is the self-loop probe — the set path's
    consistency verdicts are reproduced exactly, at merge-join cost.
    """

    kernel = KERNEL_PYTHON

    def __init__(self, encoded: EncodedGraph) -> None:
        self.encoded = encoded
        #: Candidate-pool/frontier intersection operations performed so far
        #: — the work metric behind ``repro_kernel_intersections_total``.
        self.intersections = 0

    # -- candidate pools -------------------------------------------------
    def compute_pools(self, query: QueryGraph) -> Dict[PatternTerm, List[int]]:
        """Every query vertex's candidate ids, ascending: a constant's own id
        where it is a vertex here, a variable's the ids supporting every
        incident edge."""
        return {query_vertex: self.vertex_pool(query, query_vertex) for query_vertex in query.vertices}

    def vertex_pool(self, query: QueryGraph, query_vertex: PatternTerm) -> List[int]:
        """One vertex's entry of :meth:`compute_pools`."""
        if isinstance(query_vertex, (IRI, Literal)):
            vertex_id = self.encoded.dictionary.get(query_vertex)
            return [vertex_id] if vertex_id is not None and self.encoded.is_vertex(vertex_id) else []
        return self._variable_pool(query, query_vertex)

    def _endpoint_column(self, edge: QueryEdge, query_vertex: PatternTerm) -> List[int]:
        """Sorted ids that could sit at ``query_vertex``'s end of ``edge``.

        The sorted-column counterpart of the set path's per-edge endpoint
        sets: membership in this sequence *is* edge support, so the same
        sequence drives both seeding and support filtering.
        """
        encoded = self.encoded
        code = predicate_code(encoded, edge.predicate)
        if edge.subject == query_vertex:
            other = edge.object
            if isinstance(other, Variable):
                return encoded.subjects_of_predicate(code)
            other_id = encoded.dictionary.get(other)
            if other_id is None:
                return []
            return encoded.subjects_to(code, other_id)
        other = edge.subject
        if isinstance(other, Variable):
            return encoded.objects_of_predicate(code)
        other_id = encoded.dictionary.get(other)
        if other_id is None:
            return []
        return encoded.objects_from(other_id, code)

    def _variable_pool(self, query, query_vertex) -> List[int]:
        """The ids in every incident edge's endpoint column, in id order.

        A self-loop ``?x p ?x`` with a constant ``p`` requires both of
        ``p``'s columns: a candidate must have an outgoing *and* an incoming
        ``p`` edge.  Whether that is the same edge is left to the search.
        """
        columns = []
        for edge in query.edges_of(query_vertex):
            column = self._endpoint_column(edge, query_vertex)
            if not column:
                return []
            columns.append(column)
            if edge.object == edge.subject and not isinstance(edge.predicate, Variable):
                column = self.encoded.objects_of_predicate(predicate_code(self.encoded, edge.predicate))
                if not column:
                    return []
                columns.append(column)
        if len(columns) == 1:
            # One edge supports the vertex: its column is the pool, copied
            # at C speed (the merge below would keep every id of it).
            return list(columns[0])
        seed_position = min(range(len(columns)), key=lambda i: len(columns[i]))
        seed = columns[seed_position]
        others = [
            column
            for position, column in enumerate(columns)
            if position != seed_position
        ]
        survivors = []
        self.intersections += len(others)
        # The seed ascends, so each column's next probe starts at its last one.
        starts = [0] * len(others)
        for vertex_id in seed:
            for at, column in enumerate(others):
                position = starts[at] = bisect_left(column, vertex_id, starts[at])
                if position >= len(column) or column[position] != vertex_id:
                    break
            else:
                survivors.append(vertex_id)
        return survivors

    # -- compilation -----------------------------------------------------
    def compile(self, query, order, pools) -> List[CompiledArrayVertex]:
        """The vertices of ``order``; a variable without a self-loop whose
        neighbours all come earlier and are variables or IRI/literal constants
        is *implied*: each neighbour's row is within that edge's endpoint
        column, whose intersection is the pool, so its frontier skips the pool.
        """
        compiled: List[CompiledArrayVertex] = []
        encoded = self.encoded
        for position, vertex in enumerate(order):
            vertex_index = query.vertex_index(vertex)
            narrow_columns = []
            loop_codes: List[int] = []
            implied = isinstance(vertex, Variable)
            for edge in query.edges_of(vertex):
                code = predicate_code(encoded, edge.predicate)
                other = edge.other_endpoint(vertex)
                if other == vertex:
                    loop_codes.append(code)
                    continue
                implied = implied and other in order[:position] and not isinstance(other, BlankNode)
                # The row to intersect is keyed by the *other* endpoint's
                # assignment: vertex-as-subject narrows through the inbound
                # column of the object, and vice versa.
                if edge.subject == vertex:
                    column = encoded.in_column(code)
                    other_index = query.vertex_index(edge.object)
                else:
                    column = encoded.out_column(code)
                    other_index = query.vertex_index(edge.subject)
                narrow_columns.append(
                    (column._rows, column.offsets, column.values, other_index)
                )
            implied = implied and not loop_codes and bool(narrow_columns)
            compiled.append(CompiledArrayVertex(vertex_index, pools[vertex], narrow_columns, loop_codes, implied))
        return compiled

    # -- the batched frontier --------------------------------------------
    def frontier(
        self,
        vertex: CompiledArrayVertex,
        assignment: List[Optional[int]],
    ) -> Tuple[List[int], int]:
        """``(surviving candidates, candidates tried)`` for one search depth.

        ``tried`` is the number of ordered candidates *before* the residual
        consistency filter — exactly what the set path charged
        ``search_steps`` per depth, so totals agree bit-for-bit.
        """
        spans = None
        for rows, offsets, values, other_index in vertex.narrow_columns:
            other_value = assignment[other_index]
            if other_value is None:
                continue
            position = rows.get(other_value)
            if position is None:
                return [], 0
            lo = offsets[position]
            hi = offsets[position + 1]
            if spans is None:
                spans = [(hi - lo, values, lo, hi)]
            else:
                spans.append((hi - lo, values, lo, hi))
        if spans is None:
            # Nothing adjacent assigned yet (always the depth-0 case): the
            # frontier is the whole pool.
            survivors = vertex.pool_list
        elif vertex.implied and len(spans) == 1:
            _, values, lo, hi = spans[0]  # the one row is the frontier: a C slice
            survivors = values[lo:hi]
        else:
            if not vertex.implied:
                spans.append((len(vertex.pool_list), vertex.pool_list, 0, len(vertex.pool_list)))
            # The smallest span drives the merge; the rest are probe targets
            # (their relative order does not matter, so no sort).
            best = 0
            for position in range(1, len(spans)):
                if spans[position][0] < spans[best][0]:
                    best = position
            _, values, lo, hi = spans[best]
            rest = spans[:best] + spans[best + 1 :]
            self.intersections += len(rest)
            # Gallop: iterate the smallest row in place, probe the other
            # rows with bounded bisects on the flat lists.
            survivors = []
            add = survivors.append
            for position in range(lo, hi):
                item = values[position]
                for _, other_values, other_lo, other_hi in rest:
                    probe = bisect_left(other_values, item, other_lo, other_hi)
                    if probe >= other_hi or other_values[probe] != item:
                        break
                else:
                    add(item)
        tried = len(survivors)
        if vertex.loop_codes:
            has_edge = self.encoded.has_edge
            for code in vertex.loop_codes:
                survivors = [
                    candidate
                    for candidate in survivors
                    if has_edge(candidate, code, candidate)
                ]
        return survivors, tried


#: A signature's other end if a variable, the loop, or an unknown constant (a known one's is its id).
_VARIABLE, _LOOP, _UNKNOWN = -1, -2, -3
#: Signatures one encoding's pool cache holds: reaching it empties the cache.
POOL_CACHE_LIMIT = 1024
#: Per live query graph (held weakly, and never pickled with it): the
#: dictionary state and its variables' signatures.
_SIGNATURES: "weakref.WeakKeyDictionary[QueryGraph, tuple]" = weakref.WeakKeyDictionary()


@dataclass
class CachedPool:
    """One pool of :func:`query_pools`."""

    pool: List[int]
    #: What computing it cost, charged again to every search reusing it.
    intersections: int
    internal: Optional[Set[int]] = None  #: restricted to a fragment's internal ids


class PoolCache(dict):
    """One encoding's :class:`CachedPool` by signature (:data:`SIGNATURE_POOLS`)."""

    def drop_stale(self, changes: tuple, new_keys: Set[Tuple[int, int]]) -> None:
        """Drop each pool whose signature reads what a patch changed: per
        direction (out, in), ``changes`` maps predicate -> key -> the values
        that came or went, and ``new_keys`` holds ``(direction, predicate)``
        for each key list a key came to or left.  Any label reads everything.
        """
        for signature in list(self):
            for end, code, other in signature:
                if other in (_VARIABLE, _LOOP):
                    # The variable's column's key list; a loop reads the other one too.
                    stale = (end, code) in new_keys or (other == _LOOP and (1, code) in new_keys)
                else:
                    # The constant's row of the column keyed by it; an unknown one has none.
                    stale = other in changes[1 - end].get(code, ())
                if stale or code == PREDICATE_ANY:
                    del self[signature]
                    break


def pool_signatures(encoded: EncodedGraph, query: QueryGraph) -> Dict[PatternTerm, tuple]:
    """Each variable's ``(end, predicate code, other end)`` per edge of ``edges_of``:
    all :meth:`ArrayRunner._variable_pool` reads.  Computed once per query graph
    for every site sharing the dictionary, again once it grows (a new term
    turns an unknown constant into an id)."""
    dictionary = encoded.dictionary
    state = (dictionary.space, len(dictionary))
    known = _SIGNATURES.get(query)
    if known is None or known[0] != state:
        signatures = {}
        for vertex in query.variables:
            entries = []
            for edge in query.edges_of(vertex):
                other = edge.other_endpoint(vertex)
                other_id = _VARIABLE if isinstance(other, Variable) else dictionary.get(other, _UNKNOWN)
                code = predicate_code(encoded, edge.predicate)
                entries.append((int(edge.subject != vertex), code, _LOOP if other == vertex else other_id))
            signatures[vertex] = tuple(entries)
        known = _SIGNATURES[query] = (state, signatures)
    return known[1]


def query_pools(encoded: EncodedGraph, query: QueryGraph) -> Dict[PatternTerm, CachedPool]:
    """``query``'s candidate pools over ``encoded``: each variable's from the
    encoding's cache by its signature, every other vertex's computed.

    Stage 1, partial evaluation and the search all read them.  A miss
    computes and stores; :meth:`EncodedGraph.apply_ops` drops the entries
    whose signature reads what it changed (:meth:`PoolCache.drop_stale`).
    """
    cache = encoded.memo.get(SIGNATURE_POOLS) or encoded.memo.setdefault(SIGNATURE_POOLS, PoolCache())
    signatures = pool_signatures(encoded, query)
    pools = {}
    for vertex in query.vertices:
        signature = signatures.get(vertex)
        entry = None if signature is None else cache.get(signature)
        if entry is None:
            runner = ArrayRunner(encoded)
            entry = CachedPool(runner.vertex_pool(query, vertex), runner.intersections)
            if signature is not None:
                if len(cache) >= POOL_CACHE_LIMIT:
                    cache.clear()
                cache[signature] = entry
        pools[vertex] = entry
    return pools
