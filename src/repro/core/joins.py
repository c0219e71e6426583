"""The coordinator's joins: each complete combination of operands found once.

Algorithm 2 (LEC feature pruning) and Algorithm 3 (LEC-based assembly) run
the same search over operands — LEC features, or local partial matches: find
every combination whose LECSigns partition the query vertices and whose
members join pairwise (Definition 9, Theorem 4).  :class:`JoinCompiler`
numbers a query's crossing ``(query edge, crossing edge)`` pairs;
:class:`SignGroups` lists each operand under ``(pair id, query vertex)`` for
each endpoint of its pairs it maps internally, and extends a partial
combination only through one vertex it reaches over a crossing pair but does
not cover — the exact-cover rule of Knuth's Algorithm X.  The member that
covers that vertex maps every query edge of it (Definition 5, condition 4),
so it holds the pair and sits in that one list: every combination is reached
along exactly one path, and emitted once.  ``docs/performance.md``
("Coordinator joins") has the argument in full; ``tests/core/reference_joins.py``
keeps the nested-loop join as the oracle.

Operands arrive as cluster ids (:mod:`repro.core.partial_match`), so
compiling is one dict probe per crossing pair and conflict tests compare
ints; :func:`one_space` refuses operands whose ids come from two dictionaries.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..sparql.query_graph import QueryGraph
from ..store.encoding import TermDictionary
from .lec import LECFeature
from .partial_match import Item, LocalPartialMatch, Pair

#: Value of a slot whose query edge / query vertex is unmapped (the paper's NULL).
NULL = None

#: Called with the operand numbers of each complete combination, in join
#: order, and the combination's query-vertex slots.
EmitFn = Callable[[Tuple[int, ...], Tuple[Optional[int], ...]], None]


class Operand(NamedTuple):
    """The compiled form of one LEC feature or local partial match."""

    sign: int
    fragment_id: int
    #: Ids of the crossing ``(query edge, data edge)`` pairs: the join keys.
    pairs: Tuple[int, ...]
    #: What the operand maps every query edge and query vertex it covers to.
    items: Tuple[Item, ...]


class JoinCompiler:
    """Numbers one query's crossing pairs: the keys the join index lists operands under."""

    def __init__(self, query: QueryGraph) -> None:
        self.query = query
        base = query.num_edges
        self._edge_ends = [
            (base + query.vertex_index(edge.subject), base + query.vertex_index(edge.object))
            for edge in query.edges
        ]
        self._pair_ids: Dict[Pair, int] = {}
        #: Pair id -> the items it implies: its query edge's and both ends'.
        self._pair_items: List[Tuple[Item, Item, Item]] = []
        #: Pair id -> the query vertex indexes of its subject and object.
        self.pair_ends: List[Tuple[int, int]] = []

    def _pair_id(self, pair: Pair) -> int:
        pair_id = self._pair_ids.get(pair)
        if pair_id is None:
            pair_id = self._pair_ids[pair] = len(self._pair_items)
            index, subject, predicate, obj = pair
            subject_slot, object_slot = self._edge_ends[index]
            self._pair_items.append(((index, predicate), (subject_slot, subject), (object_slot, obj)))
            base = self.query.num_edges
            self.pair_ends.append((subject_slot - base, object_slot - base))
        return pair_id

    def feature(self, feature: LECFeature) -> Operand:
        """Compile a LEC feature: its crossing pairs (``g``) alone fix what it maps."""
        pair_id = self._pair_id
        pairs = tuple([pair_id(pair) for pair in feature.crossing])
        items: Set[Item] = set()
        for key in pairs:
            items.update(self._pair_items[key])
        if len(dict(items)) != len(items):
            # One query edge or vertex mapped twice: the operand conflicts with
            # itself, so nothing can join it (Definition 9).  Without join keys
            # the index never lists it.
            pairs = ()
        return Operand(feature.lec_sign, feature.fragment_id, pairs, tuple(items))

    def lpm(self, lpm: LocalPartialMatch) -> Operand:
        """Compile a local partial match (one item per slot: never self-conflicting)."""
        pair_id = self._pair_id
        pairs = tuple([pair_id(pair) for pair in lpm.crossing])
        return Operand(lpm.internal_mask, lpm.fragment_id, pairs, lpm.items)


#: A partial combination: LECSign, crossing-pair ids, one slot per query edge
#: and query vertex (:data:`NULL` where unmapped), and the operand numbers
#: joined so far, in join order.
Partial = Tuple[int, Tuple[int, ...], List[Optional[int]], Tuple[int, ...]]


def seed(operand: Operand, number: int, query: QueryGraph) -> Partial:
    """The partial combination holding ``operand`` alone."""
    slots = [NULL] * (query.num_edges + query.num_vertices)
    for slot, held in operand.items:
        slots[slot] = held
    return (operand.sign, operand.pairs, slots, (number,))


def conflicts(slots: Sequence[Optional[int]], operand: Operand) -> bool:
    """Condition 3 of Definition 9 as slot compares.

    True when ``operand`` maps a query edge to another data edge, or a query
    vertex to another data vertex, than ``slots`` already hold.
    """
    for slot, held in operand.items:
        if slots[slot] != held and slots[slot] is not NULL:
            return True
    return False


def joinable(left: Operand, right: Operand, query: QueryGraph) -> bool:
    """Definition 9 between two single operands."""
    return (
        left.fragment_id != right.fragment_id
        and not left.sign & right.sign
        and not set(left.pairs).isdisjoint(right.pairs)
        and not conflicts(seed(left, 0, query)[2], right)
    )


def one_space(dictionaries: Iterable[TermDictionary]) -> None:
    """Raise ``ValueError`` unless all ``dictionaries`` share one id space.

    The joins compare ids, so operands encoded over two dictionaries would
    join on numbers that name different terms.
    """
    if len({dictionary.space for dictionary in dictionaries}) > 1:
        raise ValueError("the operands' ids come from two dictionaries; encode every site over one")


class SignGroups:
    """One query's operands, listed under ``(pair id, query vertex)`` (Theorem 4's join).

    ``index[pair id, v]`` lists, in arrival order, the operands that carry the
    pair and map its endpoint ``v`` internally.  Built once per query and
    discarded with it.  Theorem 5 is the sign test: operands whose LECSigns
    overlap never join.
    """

    def __init__(self, compiler: JoinCompiler, operands: Sequence[Operand]) -> None:
        self._query = compiler.query
        self._operands = operands
        self._pair_ends = pair_ends = compiler.pair_ends
        #: LECSign -> number of operands carrying it.
        self._signs = Counter([operand.sign for operand in operands])
        #: Distinct LECSigns among the operands.
        self.groups = len(self._signs)
        self.index: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        index = self.index
        for number, operand in enumerate(operands):
            sign = operand.sign
            for pair_id in operand.pairs:
                subject, obj = pair_ends[pair_id]
                if sign >> subject & 1:
                    index[pair_id, subject].append(number)
                if sign >> obj & 1:
                    index[pair_id, obj].append(number)
        #: Number of ``(pair id, vertex) -> operand`` postings.
        self.index_size = sum(map(len, index.values()))
        self.join_attempts = 0
        self.successful_joins = 0

    def join(self, emit: EmitFn) -> None:
        """Emit every complete combination (Theorem 4) once, full-sign operands on their own.

        Seeds are the operands covering the root — the query vertex the
        fewest operands cover, lowest index first — and a partial grows only
        through its scarcest ``(pair, vertex)`` list (:meth:`_extend`).
        """
        query = self._query
        if not self._operands:
            return
        root = min(
            range(query.num_vertices),
            key=lambda vertex: (sum(n for sign, n in self._signs.items() if sign >> vertex & 1), vertex),
        )
        for number, operand in enumerate(self._operands):
            if operand.sign == query.full_mask:
                _, _, slots, members = seed(operand, number, query)
                emit(members, tuple(slots[query.num_edges :]))
            elif operand.sign >> root & 1:
                self._extend(seed(operand, number, query), emit)

    def _extend(self, partial: Partial, emit: EmitFn) -> None:
        """Join ``partial`` with the operands of one frontier vertex, and recurse.

        A frontier vertex is one the partial maps through a crossing pair but
        does not cover.  Of its ``(pair, vertex)`` lists the shortest is
        taken (then the lowest vertex, then the partial's pair order); an
        empty one means no operand can complete the partial.
        """
        sign, pairs, slots, joined = partial
        pair_ends, index = self._pair_ends, self.index
        chosen: Optional[List[int]] = None
        chosen_vertex = 0
        for pair_id in pairs:
            for vertex in pair_ends[pair_id]:
                if sign >> vertex & 1:
                    continue
                listed = index.get((pair_id, vertex))
                if listed is None:
                    return
                if chosen is None or (len(listed), vertex) < (len(chosen), chosen_vertex):
                    chosen, chosen_vertex = listed, vertex
        if chosen is None:
            # Nothing left to reach: the rest of the query lies in another
            # component, which no crossing pair joins.
            return
        operands, full_mask = self._operands, self._query.full_mask
        vertex_base = self._query.num_edges
        self.join_attempts += len(chosen)
        for number in chosen:
            operand = operands[number]
            if operand.sign & sign or conflicts(slots, operand):
                continue
            self.successful_joins += 1
            new_slots = list(slots)
            for slot, held in operand.items:
                new_slots[slot] = held
            members = joined + (number,)
            if sign | operand.sign == full_mask:
                emit(members, tuple(new_slots[vertex_base:]))
            else:
                new_pairs = pairs + tuple([p for p in operand.pairs if p not in pairs])
                self._extend((sign | operand.sign, new_pairs, new_slots, members), emit)
