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

from ..rdf.graph import RDFGraph
from ..rdf.terms import IRI, Literal, PatternTerm, Variable
from ..sparql.algebra import BasicGraphPattern
from ..sparql.query_graph import QueryEdge, QueryGraph
from .encoding import EncodedGraph, encoded_view, predicate_code

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
        #: lookups.  A column is never mutated (a patch replaces it), so
        #: caching its internals here is safe.
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
            return self.encoded.sorted_vertex_ids
        columns = []
        for edge in required:
            column = self._endpoint_column(edge, query_vertex)
            if not column:
                return []
            columns.append(column)
            if edge.object == edge.subject and not isinstance(edge.predicate, Variable):
                column = self.encoded.objects_of_predicate(predicate_code(self.encoded, edge.predicate))
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
                    column = encoded.in_column(code)
                    other_index = query.vertex_index(edge.object)
                else:
                    column = encoded.out_column(code)
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
