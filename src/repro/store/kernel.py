"""The matching kernel: the compiled query, candidate pools and merge-join frontiers.

:func:`compile_query` is where a query becomes ints — slots, constant ids,
predicate codes, ranks and pool signatures — once per query graph and
dictionary state; the sites read that one :class:`CompiledQuery`, and the
coordinator, which holds no site's dictionary, only its dictionary-free
:class:`QueryLayout` (:func:`query_layout`).
:class:`ArrayRunner` is the one matching kernel (named ``python`` in traces):
pools and frontiers are sorted id lists, narrowed by galloping ``bisect``
merge-joins over the encoding's sorted columns (replaced per predicate by a
patch).  The hash-set path it replaced survives as the test-suite's parity
oracle; both yield the same match *sequence* and ``search_steps``.  An
*implied* variable's frontier is its neighbours' rows alone, as in Leapfrog
Triejoin (Veldhuizen, ICDT 2014); pools are cached by signature
(:func:`query_pools`).  ``docs/performance.md`` has the details.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..rdf.terms import IRI, BlankNode, Literal, PatternTerm, Variable
from ..sparql.query_graph import QueryGraph
from .encoding import PREDICATE_ANY, SIGNATURE_POOLS, EncodedGraph, TermDictionary, predicate_code

#: The sorted-column kernel's name, as recorded in traces and result metadata.
KERNEL_PYTHON = "python"


def resolve_kernel(name: None = None) -> str:
    """The matching kernel's name (there is one: :data:`KERNEL_PYTHON`)."""
    return KERNEL_PYTHON


#: A signature's other end if a variable, or an unknown constant (a known one's
#: is its id); :attr:`CompiledQuery.constants` marks an unknown constant so too.
_VARIABLE, _UNKNOWN = -1, -3
#: Per live query graph (held weakly, and never pickled with it): its layout,
#: and its compiled form in the last dictionary state it was compiled under.
_LAYOUTS: "weakref.WeakKeyDictionary[QueryGraph, QueryLayout]" = weakref.WeakKeyDictionary()
_COMPILED: "weakref.WeakKeyDictionary[QueryGraph, CompiledQuery]" = weakref.WeakKeyDictionary()


class QueryLayout:
    """A query graph's slots, which no dictionary decides (:func:`query_layout`).

    Slots are the local-partial-match item layout (:data:`repro.core.partial_match.Item`):
    query edge ``i`` owns slot ``i``, query vertex ``j`` slot ``|E_Q| + j``, and
    a predicate variable the slot of the first edge it labels.  A variable that
    is also a vertex keeps its vertex slot and labels nothing.
    """

    def __init__(self, query: QueryGraph) -> None:
        base = self.num_edges = query.num_edges
        index = {vertex: position for position, vertex in enumerate(query.vertices)}
        #: Vertex or predicate variable -> its slot.
        self.slot_of: Dict[PatternTerm, int] = {vertex: base + j for vertex, j in index.items()}
        #: Blank-node vertices: searched like variables, read as constants by their neighbours' pools.
        self.blank = frozenset(j for vertex, j in index.items() if isinstance(vertex, BlankNode))
        #: Per edge: subject slot, object slot, subject vertex, object vertex.
        self.edge_ends = tuple(
            (base + index[e.subject], base + index[e.object], index[e.subject], index[e.object]) for e in query.edges
        )
        labelled: Dict[PatternTerm, List[int]] = {}
        for edge in query.edges:
            if isinstance(edge.predicate, Variable) and edge.predicate not in index:
                labelled.setdefault(edge.predicate, []).append(edge.index)
                self.slot_of.setdefault(edge.predicate, edge.index)
        #: Per predicate variable, by first edge: every edge it labels.
        self.labelled = tuple(map(tuple, labelled.values()))

    def row_slots(self, variables: Sequence[Variable]) -> List[Optional[int]]:
        """The slot of each of ``variables`` (``None``: the query binds it nowhere)."""
        return [self.slot_of.get(variable) for variable in variables]


def query_layout(query: QueryGraph) -> QueryLayout:
    """``query``'s :class:`QueryLayout`, built once per live query graph."""
    layout = _LAYOUTS.get(query)
    if layout is None:
        layout = _LAYOUTS[query] = QueryLayout(query)
    return layout


class CompiledQuery:
    """A query graph's :class:`QueryLayout` with the ids one dictionary state
    gives its terms (:func:`compile_query`)."""

    def __init__(self, query: QueryGraph, dictionary: TermDictionary) -> None:
        self.layout = query_layout(query)
        #: The dictionary's ``(space, len)``: more terms may turn an unknown constant into an id.
        self.state = (dictionary.space, len(dictionary))
        vertices, index = query.vertices, query.vertex_index
        #: Per vertex: ``None`` for a variable, else the constant's id or ``_UNKNOWN``.
        self.constants = tuple(None if isinstance(v, Variable) else dictionary.get(v, _UNKNOWN) for v in vertices)
        #: Per edge: its predicate code.
        self.codes = tuple(predicate_code(dictionary, edge.predicate) for edge in query.edges)
        #: Per vertex, per edge of ``edges_of``: other vertex (itself on a loop),
        #: end (0 where the vertex is the subject) and code.
        self.adjacency = tuple(
            tuple((index(e.other_endpoint(v)), int(e.subject != v), self.codes[e.index]) for e in query.edges_of(v))
            for v in vertices
        )
        #: Per vertex: its pool signature (``None`` for an IRI or literal, whose pool is its own id).
        self.signatures = tuple(
            None if isinstance(vertex, (IRI, Literal)) else self._signature(j) for j, vertex in enumerate(vertices)
        )
        self._ranked: Dict[Optional[tuple], tuple] = {}

    def _signature(self, vertex: int) -> tuple:
        """``(end, code, other end)`` per column the vertex's pool intersects:
        the other end is ``_VARIABLE`` or a constant's id, and a loop with a
        constant label also needs an incoming edge, the label's objects."""
        entries = []
        for other, end, code in self.adjacency[vertex]:
            constant = self.constants[other]
            entries.append((end, code, _VARIABLE if constant is None else constant))
            if other == vertex and code != PREDICATE_ANY:
                entries.append((1, code, _VARIABLE))
        return tuple(entries)

    def ranked(self, edge_order: Optional[Sequence[int]] = None) -> tuple:
        """Once per edge order: per rank ``(subject, object, code, edge index)``
        (the planner's order, BGP order where it names no rank), each vertex's
        incident mask over ranks, and the emission order ``(edge index, rank,
        subject, object)``."""
        key = None if edge_order is None else tuple(edge_order)
        ranked = self._ranked.get(key)
        if ranked is None:
            priority = {} if key is None else {index: rank for rank, index in enumerate(key)}
            order = sorted(range(len(self.codes)), key=lambda index: (priority.get(index, index), index))
            edges = [(*self.layout.edge_ends[index][2:], self.codes[index], index) for index in order]
            incident = [0] * len(self.constants)
            for rank, (subject, obj, _, _) in enumerate(edges):
                incident[subject] |= 1 << rank
                incident[obj] |= 1 << rank
            emission = sorted((index, rank, subject, obj) for rank, (subject, obj, _, index) in enumerate(edges))
            ranked = self._ranked[key] = (edges, incident, emission)
        return ranked


def compile_query(query: QueryGraph, dictionary: TermDictionary) -> CompiledQuery:
    """``query``'s :class:`CompiledQuery` over ``dictionary``: built once per live
    query graph for every site sharing the dictionary, and again once the
    dictionary's state changes (a new term may be a constant the query named).
    Ranks are keyed by edge order inside it (:meth:`CompiledQuery.ranked`)."""
    compiled = _COMPILED.get(query)
    if compiled is None or compiled.state != (dictionary.space, len(dictionary)):
        compiled = _COMPILED[query] = CompiledQuery(query, dictionary)
    return compiled


@dataclass(slots=True)
class CompiledArrayVertex:
    """A query vertex in visit order with this encoding's columns.

    ``narrow_columns`` holds ``(row index, offsets, values, other vertex)`` per
    non-loop edge: the column whose row at the other end's assignment narrows
    the frontier, flattened for the hot loop (a patch replaces a column, never
    mutates it).  Self-loops are the only per-candidate probe.
    """

    index: int
    pool_list: List[int]
    narrow_columns: List[Tuple[Dict[int, int], List[int], List[int], int]]
    loop_codes: List[int]
    implied: bool


class ArrayRunner:
    """One ``find_matches`` call's kernel state (never shared across calls).

    The matcher drives three steps: :meth:`compute_pools` (per-vertex pools
    in id order), :meth:`compile` (the visit order with its columns) and
    :meth:`frontier` (one search depth's candidates, by merge-join over the
    assigned neighbours' rows and the pool, smallest driving).
    """

    kernel = KERNEL_PYTHON

    def __init__(self, encoded: EncodedGraph) -> None:
        self.encoded = encoded
        #: Candidate-pool/frontier intersection operations performed so far
        #: — the work metric behind ``repro_kernel_intersections_total``.
        self.intersections = 0

    def compute_pools(self, query: QueryGraph) -> Dict[PatternTerm, List[int]]:
        """Every query vertex's candidate ids, ascending, computed afresh."""
        compiled = compile_query(query, self.encoded.dictionary)
        return {
            vertex: self.vertex_pool(signature, constant)
            for vertex, signature, constant in zip(query.vertices, compiled.signatures, compiled.constants)
        }

    def vertex_pool(self, signature: Optional[tuple], constant: Optional[int]) -> List[int]:
        """A constant's own id where it is a vertex here; else the ids in every
        column of ``signature`` (a label's key list where the other end is a
        variable, the constant's row otherwise: membership *is* edge support)."""
        encoded = self.encoded
        if signature is None:
            return [constant] if constant >= 0 and encoded.is_vertex(constant) else []
        columns = []
        for end, code, other in signature:
            if other == _VARIABLE:
                column = encoded.out_column(code).keys if end == 0 else encoded.in_column(code).keys
            elif other == _UNKNOWN:
                return []
            else:
                column = encoded.subjects_to(code, other) if end == 0 else encoded.objects_from(other, code)
            if not column:
                return []
            columns.append(column)
        if len(columns) == 1:
            # One edge supports the vertex: its column is the pool, copied
            # at C speed (the merge below would keep every id of it).
            return list(columns[0])
        seed_position = min(range(len(columns)), key=lambda i: len(columns[i]))
        seed = columns.pop(seed_position)
        survivors = []
        self.intersections += len(columns)
        # The seed ascends, so each column's next probe starts at its last one.
        starts = [0] * len(columns)
        for vertex_id in seed:
            for at, column in enumerate(columns):
                position = starts[at] = bisect_left(column, vertex_id, starts[at])
                if position >= len(column) or column[position] != vertex_id:
                    break
            else:
                survivors.append(vertex_id)
        return survivors

    def compile(self, query, order, pools) -> List[CompiledArrayVertex]:
        """The vertices of ``order``; a variable without a self-loop whose
        neighbours all come earlier and are variables or IRI/literal constants
        is *implied*: each neighbour's row is within that edge's endpoint
        column, whose intersection is the pool, so its frontier skips the pool.
        """
        compiled = compile_query(query, self.encoded.dictionary)
        layout, encoded, vertices, earlier = compiled.layout, self.encoded, [], set()
        for vertex in order:
            index = layout.slot_of[vertex] - layout.num_edges
            narrow_columns, loop_codes = [], []
            implied = compiled.constants[index] is None
            for other, end, code in compiled.adjacency[index]:
                if other == index:
                    loop_codes.append(code)
                    continue
                implied = implied and other in earlier and other not in layout.blank
                # The row is keyed by the *other* end's assignment: a subject
                # narrows through the object's inbound column, and vice versa.
                column = encoded.in_column(code) if end == 0 else encoded.out_column(code)
                narrow_columns.append((column._rows, column.offsets, column.values, other))
            earlier.add(index)
            implied = implied and not loop_codes and bool(narrow_columns)
            vertices.append(CompiledArrayVertex(index, pools[vertex], narrow_columns, loop_codes, implied))
        return vertices

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


#: Signatures one encoding's pool cache holds: reaching it empties the cache.
POOL_CACHE_LIMIT = 1024


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
                if other == _VARIABLE:
                    stale = (end, code) in new_keys  # the variable's column's key list
                else:
                    # The constant's row of the column keyed by it; an unknown one has none.
                    stale = other in changes[1 - end].get(code, ())
                if stale or code == PREDICATE_ANY:
                    del self[signature]
                    break


def query_pools(encoded: EncodedGraph, query: QueryGraph) -> Dict[PatternTerm, CachedPool]:
    """``query``'s candidate pools over ``encoded``: each variable's from the
    encoding's cache by its compiled signature, every constant's computed.

    Stage 1, partial evaluation and the search all read them.  A miss
    computes and stores; :meth:`EncodedGraph.apply_ops` drops the entries
    whose signature reads what it changed (:meth:`PoolCache.drop_stale`).
    """
    cache = encoded.memo.get(SIGNATURE_POOLS) or encoded.memo.setdefault(SIGNATURE_POOLS, PoolCache())
    compiled = compile_query(query, encoded.dictionary)
    pools = {}
    for vertex, signature, constant in zip(query.vertices, compiled.signatures, compiled.constants):
        entry = None if signature is None else cache.get(signature)
        if entry is None:
            runner = ArrayRunner(encoded)
            entry = CachedPool(runner.vertex_pool(signature, constant), runner.intersections)
            if signature is not None:
                if len(cache) >= POOL_CACHE_LIMIT:
                    cache.clear()
                cache[signature] = entry
        pools[vertex] = entry
    return pools
