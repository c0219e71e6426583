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

The sorted columns live on the :class:`~repro.store.encoding.EncodedGraph`,
are built lazily per predicate, memoized per graph version, and invalidated
*per predicate* when ``apply_ops`` patches the encoding — an incremental
mutation touches only the mutated predicates' columns, everything else
stays warm.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..rdf.graph import RDFGraph
from ..rdf.terms import IRI, Literal, PatternTerm, Variable
from ..sparql.algebra import BasicGraphPattern
from ..sparql.query_graph import QueryEdge, QueryGraph
from .encoding import PREDICATE_ANY, EncodedGraph, encoded_view, predicate_code

#: The sorted-column kernel's name, as recorded in traces and result metadata.
KERNEL_PYTHON = "python"


def resolve_kernel(name: None = None) -> str:
    """The matching kernel's name (there is one: :data:`KERNEL_PYTHON`)."""
    return KERNEL_PYTHON


# ----------------------------------------------------------------------
# Sorted adjacency columns (cached per EncodedGraph)
# ----------------------------------------------------------------------
class SortedColumn:
    """One predicate-direction's CSR adjacency: sorted keys, offset rows.

    ``values`` is a flat Python list (contiguous sorted rows), so the gallop
    path probes it with ``bisect_left(values, item, lo, hi)`` — no slicing,
    no element boxing.
    """

    __slots__ = ("keys", "values", "offsets", "_rows")

    def __init__(self, rows: List[Tuple[int, Sequence[int]]]) -> None:
        self.keys: List[int] = [key for key, _ in rows]
        flat: List[int] = []
        offsets = [0]
        for _, row_values in rows:
            flat.extend(row_values)
            offsets.append(len(flat))
        self.values = flat
        self.offsets = offsets
        self._rows = {key: position for position, (key, _) in enumerate(rows)}

    def bounds(self, key: int) -> Optional[Tuple[int, int]]:
        """``(lo, hi)`` bounds of ``key``'s row in ``values`` (None if absent)."""
        position = self._rows.get(key)
        if position is None:
            return None
        return self.offsets[position], self.offsets[position + 1]

    def row(self, key: int) -> List[int]:
        """The sorted neighbour ids of ``key`` (empty list when absent)."""
        span = self.bounds(key)
        if span is None:
            return []
        return self.values[span[0] : span[1]]


class SortedAdjacency:
    """Per-predicate sorted adjacency columns over one :class:`EncodedGraph`.

    Columns are built lazily (first probe of a predicate/direction pair) and
    memoized until :meth:`invalidate` drops exactly the predicates an
    ``apply_ops`` patch touched — the incremental counterpart of
    :func:`~repro.store.encoding.patch_encoded_view`.  The memoized
    :meth:`vertex_pool` / column keys are also the once-per-version sorted
    candidate pools the matcher reuses across warm-session queries.
    """

    __slots__ = ("encoded", "_out", "_in", "_vertex_pool")

    def __init__(self, encoded: EncodedGraph) -> None:
        self.encoded = encoded
        self._out: Dict[int, SortedColumn] = {}
        self._in: Dict[int, SortedColumn] = {}
        self._vertex_pool: Optional[List[int]] = None

    def invalidate(self, codes: Set[int]) -> None:
        """Drop the columns for the mutated predicates (and the ANY rollups)."""
        for code in codes:
            self._out.pop(code, None)
            self._in.pop(code, None)
        self._out.pop(PREDICATE_ANY, None)
        self._in.pop(PREDICATE_ANY, None)
        self._vertex_pool = None

    @staticmethod
    def _build(source: Dict[int, Set[int]], keys) -> SortedColumn:
        return SortedColumn([(key, sorted(source[key])) for key in sorted(keys)])

    def out_column(self, code: int) -> SortedColumn:
        """The subject→objects column of ``code`` (empty for absent codes)."""
        column = self._out.get(code)
        if column is None:
            encoded = self.encoded
            if code == PREDICATE_ANY:
                column = self._build(encoded._out_nbrs, encoded._out_nbrs)
            elif code >= 0:
                subjects = encoded._p_subjects.get(code, ())
                column = self._build(
                    {s: encoded._spo[s][code] for s in subjects}, subjects
                )
            else:
                column = SortedColumn([])
            self._out[code] = column
        return column

    def in_column(self, code: int) -> SortedColumn:
        """The object→subjects column of ``code`` (empty for absent codes)."""
        column = self._in.get(code)
        if column is None:
            encoded = self.encoded
            if code == PREDICATE_ANY:
                column = self._build(encoded._in_nbrs, encoded._in_nbrs)
            elif code >= 0:
                by_object = encoded._pos.get(code, {})
                column = self._build(by_object, by_object)
            else:
                column = SortedColumn([])
            self._in[code] = column
        return column

    # -- kernel probes (sorted-sequence counterparts of EncodedGraph's) ----
    def objects_from(self, subject_id: int, code: int) -> List[int]:
        """Sorted ids of objects reached from ``subject_id`` via ``code``."""
        return self.out_column(code).row(subject_id)

    def subjects_to(self, code: int, object_id: int) -> List[int]:
        """Sorted ids of subjects reaching ``object_id`` via ``code``."""
        return self.in_column(code).row(object_id)

    def subject_keys(self, code: int) -> List[int]:
        """Sorted ids of all subjects of ``code`` (memoized per version)."""
        return self.out_column(code).keys

    def object_keys(self, code: int) -> List[int]:
        """Sorted ids of all objects of ``code`` (memoized per version)."""
        return self.in_column(code).keys

    def vertex_pool(self) -> List[int]:
        """Every vertex id in candidate-sort order.

        Memoized per graph version — the "all vertices" candidate pool is
        sorted once, not once per query.
        """
        pool = self._vertex_pool
        if pool is None:
            pool = self._vertex_pool = list(self.encoded.sorted_vertex_ids)
        return pool


def adjacency_view(encoded: EncodedGraph) -> SortedAdjacency:
    """The (cached) sorted-column adjacency of ``encoded``."""
    adjacency = encoded._kernel_adjacency
    if adjacency is None:
        adjacency = encoded._kernel_adjacency = SortedAdjacency(encoded)
    return adjacency


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

    __slots__ = ("index", "pool_list", "narrow_columns", "loop_codes")

    def __init__(
        self,
        index: int,
        pool_list: List[int],
        narrow_columns: List[Tuple[Dict[int, int], List[int], List[int], int]],
        loop_codes: List[int],
    ) -> None:
        self.index = index
        self.pool_list = pool_list
        #: ``(row index, offsets, values, other_vertex_index)`` per incident
        #: non-loop edge — the internals of the adjacency column whose row at
        #: the other endpoint's assignment narrows this vertex's frontier,
        #: flattened so the per-depth hot loop runs on plain dict/list
        #: lookups.  Columns never change within one ``find_matches`` call
        #: (invalidation happens on graph mutation, between calls), so
        #: caching their internals here is safe.
        self.narrow_columns = narrow_columns
        self.loop_codes = loop_codes


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
        self.adjacency = adjacency_view(encoded)

    # -- candidate pools -------------------------------------------------
    def compute_pools(
        self,
        query: QueryGraph,
        relaxed_edges: Optional[Dict[PatternTerm, Set[int]]] = None,
    ) -> Dict[PatternTerm, List[int]]:
        relaxed_edges = relaxed_edges or {}
        pools: Dict[PatternTerm, List[int]] = {}
        for query_vertex in query.vertices:
            if isinstance(query_vertex, (IRI, Literal)):
                vertex_id = self.encoded.dictionary.get(query_vertex)
                if vertex_id is not None and self.encoded.is_vertex(vertex_id):
                    pools[query_vertex] = [vertex_id]
                else:
                    pools[query_vertex] = []
            else:
                pools[query_vertex] = self._variable_pool(
                    query, query_vertex, relaxed_edges.get(query_vertex, set())
                )
        return pools

    def _endpoint_column(self, edge: QueryEdge, query_vertex: PatternTerm) -> List[int]:
        """Sorted ids that could sit at ``query_vertex``'s end of ``edge``.

        The sorted-column counterpart of the set path's per-edge endpoint
        sets: membership in this sequence *is* edge support, so the same
        sequence drives both seeding and support filtering.
        """
        encoded = self.encoded
        adjacency = self.adjacency
        code = predicate_code(encoded, edge.predicate)
        if edge.subject == query_vertex:
            other = edge.object
            if isinstance(other, Variable):
                return adjacency.subject_keys(code)
            other_id = encoded.dictionary.get(other)
            if other_id is None:
                return []
            return adjacency.subjects_to(code, other_id)
        other = edge.subject
        if isinstance(other, Variable):
            return adjacency.object_keys(code)
        other_id = encoded.dictionary.get(other)
        if other_id is None:
            return []
        return adjacency.objects_from(other_id, code)

    def _variable_pool(self, query, query_vertex, relaxed: Set[int]) -> List[int]:
        """The ids in every required edge's endpoint column, in id order.

        A self-loop ``?x p ?x`` with a constant ``p`` requires both of
        ``p``'s columns: a candidate must have an outgoing *and* an incoming
        ``p`` edge.  Whether that is the same edge is left to the search.
        """
        required = [
            edge for edge in query.edges_of(query_vertex) if edge.index not in relaxed
        ]
        if not required:
            # Every incident edge was relaxed: any vertex could match.
            return self.adjacency.vertex_pool()
        columns = []
        for edge in required:
            column = self._endpoint_column(edge, query_vertex)
            if not column:
                return []
            columns.append(column)
            if edge.object == edge.subject and not isinstance(edge.predicate, Variable):
                column = self.adjacency.object_keys(predicate_code(self.encoded, edge.predicate))
                if not column:
                    return []
                columns.append(column)
        seed_position = min(range(len(columns)), key=lambda i: len(columns[i]))
        seed = columns[seed_position]
        others = [
            column
            for position, column in enumerate(columns)
            if position != seed_position
        ]
        survivors = []
        self.intersections += len(others)
        for vertex_id in seed:
            supported = True
            for column in others:
                position = bisect_left(column, vertex_id)
                if position >= len(column) or column[position] != vertex_id:
                    supported = False
                    break
            if supported:
                survivors.append(vertex_id)
        return survivors

    # -- compilation -----------------------------------------------------
    def compile(self, query, order, pools) -> List[CompiledArrayVertex]:
        compiled: List[CompiledArrayVertex] = []
        encoded = self.encoded
        adjacency = self.adjacency
        for vertex in order:
            vertex_index = query.vertex_index(vertex)
            narrow_columns = []
            loop_codes: List[int] = []
            for edge in query.edges_of(vertex):
                code = predicate_code(encoded, edge.predicate)
                if edge.other_endpoint(vertex) == vertex:
                    loop_codes.append(code)
                    continue
                # The row to intersect is keyed by the *other* endpoint's
                # assignment: vertex-as-subject narrows through the inbound
                # column of the object, and vice versa.
                if edge.subject == vertex:
                    column = adjacency.in_column(code)
                    other_index = query.vertex_index(edge.object)
                else:
                    column = adjacency.out_column(code)
                    other_index = query.vertex_index(edge.subject)
                narrow_columns.append(
                    (column._rows, column.offsets, column.values, other_index)
                )
            compiled.append(
                CompiledArrayVertex(vertex_index, pools[vertex], narrow_columns, loop_codes)
            )
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
        else:
            pool_list = vertex.pool_list
            spans.append((len(pool_list), pool_list, 0, len(pool_list)))
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


@dataclass
class QueryPools:
    """One query's :meth:`ArrayRunner.compute_pools` over one graph version."""

    owner: weakref.ref  #: the query graph, held weakly: the entry dies with it
    version: int
    pools: Dict[PatternTerm, List[int]]
    #: What computing them cost, charged again to every search reusing them.
    intersections: int
    internal: Optional[dict] = None  #: restricted to a fragment's internal ids


def cached_pools(graph: RDFGraph, bgp: BasicGraphPattern) -> Optional[QueryPools]:
    """The pools of the live query graph built on ``bgp``, if ``graph`` is unchanged."""
    entry = encoded_view(graph).memo.get(QueryPools, {}).get(id(bgp))
    if entry is None or entry.version != graph.version or getattr(entry.owner(), "bgp", None) is not bgp:
        return None
    return entry


def query_pools(graph: RDFGraph, query: QueryGraph) -> QueryPools:
    """``query``'s candidate pools over ``graph``, computed once per query.

    Stage 1, partial evaluation and the complete-match search share them
    through a memo on the encoded view, keyed on the BGP.  A miss computes.
    """
    entry = cached_pools(graph, query.bgp)
    if entry is None:
        encoded, key = encoded_view(graph), id(query.bgp)
        memo, runner = encoded.memo.setdefault(QueryPools, {}), ArrayRunner(encoded)
        pools = runner.compute_pools(query)
        owner = weakref.ref(query, lambda _: memo.pop(key, None))
        entry = memo[key] = QueryPools(owner, graph.version, pools, runner.intersections)
    return entry
