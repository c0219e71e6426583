"""The coordinator's joins, hash-indexed on numbered crossing pairs.

Algorithm 2 (LEC feature pruning) and Algorithm 3 (LEC-based assembly) run
the same search: group the operands — LEC features, or local partial matches
— by LECSign and extend partial combinations depth-first across groups with
disjoint signs.  Definition 9 lets two operands join only through a crossing
edge both map to the *same* query edge, so a combination's partners inside a
group are exactly the members sharing one of its ``(query edge, crossing
edge)`` pairs: :class:`JoinCompiler` numbers those pairs per query,
:class:`SignGroups` indexes each group ``pair id -> operands`` and probes
instead of scanning.  The probe is exact (an operand without a shared pair
fails condition 2 whatever else holds) and hits are visited in arrival order,
so complete combinations come out in the sequence the nested-loop join
produced — ``tests/core/reference_joins.py`` keeps that join as the oracle,
``docs/performance.md`` ("coordinator joins") has the argument in full.  Only
``join_attempts`` changed meaning: pairs the index yielded and the conflict
test ran on, not the whole cross product.

Operands arrive as cluster ids (:mod:`repro.core.partial_match`), so
compiling is one dict probe per crossing pair and conflict tests compare ints.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..sparql.query_graph import QueryGraph
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
    """Numbers one query's crossing pairs: the keys the group index probes."""

    def __init__(self, query: QueryGraph) -> None:
        base = query.num_edges
        self._edge_ends = [
            (base + query.vertex_index(edge.subject), base + query.vertex_index(edge.object))
            for edge in query.edges
        ]
        self._pair_ids: Dict[Pair, int] = {}
        #: Pair id -> the items it implies: its query edge's and both ends'.
        self._pair_items: List[Tuple[Item, Item, Item]] = []

    def _pair_id(self, pair: Pair) -> int:
        pair_id = self._pair_ids.get(pair)
        if pair_id is None:
            pair_id = self._pair_ids[pair] = len(self._pair_items)
            index, subject, predicate, obj = pair
            subject_slot, object_slot = self._edge_ends[index]
            self._pair_items.append(((index, predicate), (subject_slot, subject), (object_slot, obj)))
        return pair_id

    def feature(self, feature: LECFeature) -> Operand:
        """Compile a LEC feature."""
        pair_id = self._pair_id
        pairs = tuple([pair_id(pair) for pair in feature.crossing])
        return self.crossing_operand(feature.lec_sign, feature.fragment_id, pairs)

    def crossing_operand(self, sign: int, fragment_id: int, pairs: Tuple[int, ...]) -> Operand:
        """The operand of the LEC feature with these crossing pairs.

        ``g`` alone fixes what a feature maps, so the feature of a compiled
        LPM is ``crossing_operand(lpm.sign, lpm.fragment_id, lpm.pairs)``.
        """
        items: Set[Item] = set()
        for pair_id in pairs:
            items.update(self._pair_items[pair_id])
        if len(dict(items)) != len(items):
            # One query edge or vertex mapped twice: the operand conflicts with
            # itself, so nothing can join it (Definition 9).  Without join keys
            # the index never yields it.
            pairs = ()
        return Operand(sign, fragment_id, pairs, tuple(items))

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


class SignGroups:
    """Operands grouped by LECSign (Theorem 5), each group hash-indexed.

    ``index[sign][pair id]`` lists, in arrival order, the operands of the
    group that carry the pair.  Built once per query and discarded with it.
    """

    def __init__(self, query: QueryGraph, operands: Sequence[Operand]) -> None:
        self._query = query
        self._operands = operands
        self.members: Dict[int, List[int]] = defaultdict(list)
        self.index: Dict[int, Dict[int, List[int]]] = defaultdict(dict)
        #: Number of ``pair id -> operand`` postings over all groups.
        self.index_size = 0
        self.join_attempts = 0
        self.successful_joins = 0
        for number, operand in enumerate(operands):
            self.members[operand.sign].append(number)
            postings = self.index[operand.sign]
            for pair_id in operand.pairs:
                postings.setdefault(pair_id, []).append(number)
            self.index_size += len(operand.pairs)

    def join_graph(self) -> Dict[int, Set[int]]:
        """Signs are adjacent when some pair of their operands is joinable.

        Only operands that meet under one pair id can be, so the index
        enumerates every candidate; same-sign operands never are (Theorem 5).
        """
        operands, query = self._operands, self._query
        adjacency: Dict[int, Set[int]] = {sign: set() for sign in self.members}
        holders: Dict[int, List[int]] = defaultdict(list)
        for sign, postings in self.index.items():
            for pair_id in postings:
                holders[pair_id].append(sign)
        for pair_id, signs in holders.items():
            for position, sign_a in enumerate(signs):
                for sign_b in signs[position + 1 :]:
                    if sign_a & sign_b or sign_b in adjacency[sign_a]:
                        continue
                    if any(
                        joinable(operands[a], operands[b], query)
                        for a in self.index[sign_a][pair_id]
                        for b in self.index[sign_b][pair_id]
                    ):
                        adjacency[sign_a].add(sign_b)
                        adjacency[sign_b].add(sign_a)
        return adjacency

    def join(self, graph: Dict[int, Set[int]], emit: EmitFn) -> None:
        """Emit every complete combination (Theorem 4), single operands first.

        Function ComLECFJoin / ComParJoin of the paper: repeatedly seed the
        DFS from the smallest remaining group, then retire it together with
        the groups it leaves without an active neighbour.
        """
        operands, query = self._operands, self._query
        for number, operand in enumerate(operands):
            if operand.sign == query.full_mask:
                _, _, slots, members = seed(operand, number, query)
                emit(members, tuple(slots[query.num_edges :]))
        remaining = set(self.members)
        while remaining:
            seed_sign = min(remaining, key=lambda sign: (len(self.members[sign]), sign))
            seeds = [seed(operands[number], number, query) for number in self.members[seed_sign]]
            self._explore({seed_sign}, seeds, graph, remaining, emit)
            remaining.discard(seed_sign)
            for sign in list(remaining):
                if not graph[sign] & remaining:
                    remaining.discard(sign)

    def _explore(
        self,
        used_signs: Set[int],
        partials: Sequence[Partial],
        graph: Dict[int, Set[int]],
        active_signs: Set[int],
        emit: EmitFn,
    ) -> None:
        # A complete match uses at most |V_Q| operands: each contributes at
        # least one internally matched vertex.
        if not partials or len(used_signs) >= self._query.num_vertices:
            return
        operands, full_mask = self._operands, self._query.full_mask
        vertex_base = self._query.num_edges
        neighbour_signs: Set[int] = set()
        for sign in used_signs:
            neighbour_signs |= graph[sign]
        neighbour_signs &= active_signs
        neighbour_signs -= used_signs
        for sign in sorted(neighbour_signs):
            postings = self.index[sign]
            extended: List[Partial] = []
            for partial_sign, pairs, slots, joined in partials:
                if partial_sign & sign:
                    continue
                hits = [postings[pair_id] for pair_id in pairs if pair_id in postings]
                if not hits:
                    continue
                # Ascending operand number = the group's arrival order.
                partners = hits[0] if len(hits) == 1 else sorted(set().union(*hits))
                self.join_attempts += len(partners)
                for number in partners:
                    operand = operands[number]
                    if conflicts(slots, operand):
                        continue
                    self.successful_joins += 1
                    new_slots = list(slots)
                    for slot, held in operand.items:
                        new_slots[slot] = held
                    members = joined + (number,)
                    if partial_sign | sign == full_mask:
                        emit(members, tuple(new_slots[vertex_base:]))
                    else:
                        new_pairs = pairs + tuple([p for p in operand.pairs if p not in pairs])
                        extended.append((partial_sign | sign, new_pairs, new_slots, members))
            if extended:
                self._explore(used_signs | {sign}, extended, graph, active_signs, emit)
