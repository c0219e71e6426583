"""The coordinator's joins: each complete combination of operands found once.

Algorithm 2 (LEC feature pruning) and Algorithm 3 (LEC-based assembly) run
the same search over operands — LEC features, or local partial matches: find
every combination whose LECSigns partition the query vertices and whose
members join pairwise (Definition 9, Theorem 4).  An operand is what the
join reads, ``(LECSign, crossing pairs)``, taken as it arrives: a feature's
``(lec_sign, crossing)``, an LPM's ``(internal_mask, crossing)`` (Theorem 2:
the crossing pairs decide what an operand joins with).  :class:`SignGroups`
lists each operand under each crossing pair whose subject or object it maps
internally, and extends a partial combination only through one vertex it
reaches over a crossing pair but does not cover — the exact-cover rule of
Knuth's Algorithm X.  The member that covers that vertex maps every query
edge of it (Definition 5, condition 4), so it holds the pair and sits in
that one list: every combination is reached along exactly one path, and
emitted once.  Joining a listed operand is one :func:`fill` pass over its
pairs.  ``docs/performance.md`` ("Coordinator joins") has the argument in
full; ``tests/core/reference_joins.py`` keeps the nested-loop join as the
oracle.

Operands arrive as cluster ids (:mod:`repro.core.partial_match`), so the
index hashes the sites' own pair tuples and conflict tests compare ints;
:func:`one_space` refuses operands whose ids come from two dictionaries.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sparql.query_graph import QueryGraph
from ..store.encoding import TermDictionary
from ..store.kernel import query_layout
from .partial_match import Pair

#: Per query edge: the slots of its subject and object (query vertex ``j``
#: owns slot ``|E_Q| + j``), then their query vertex indexes
#: (:attr:`QueryLayout.edge_ends <repro.store.kernel.QueryLayout.edge_ends>`).
Ends = Tuple[int, int, int, int]

#: One slot per query edge and query vertex: the predicate or data vertex id
#: it is mapped to, ``None`` where unmapped (the paper's NULL).
Slots = List[Optional[int]]

#: Called with the operand numbers of each complete combination, in join order.
EmitFn = Callable[[Tuple[int, ...]], None]


def fill(slots: Slots, crossing: Iterable[Pair], ends: Sequence[Ends]) -> Optional[Slots]:
    """Condition 3 of Definition 9 as one check-and-fill pass.

    A copy of ``slots`` with each pair's query edge, subject and object slot
    filled in; ``None`` at the first slot that already holds another id — the
    pairs map a query edge to two data edges, or a query vertex to two data
    vertices, against ``slots`` or against each other.
    """
    filled = slots[:]
    # Unrolled over a pair's three slots: this is the join's inner loop.
    for index, subject, predicate, obj in crossing:
        subject_slot, object_slot, _, _ = ends[index]
        held = filled[index]
        if held is None:
            filled[index] = predicate
        elif held != predicate:
            return None
        held = filled[subject_slot]
        if held is None:
            filled[subject_slot] = subject
        elif held != subject:
            return None
        held = filled[object_slot]
        if held is None:
            filled[object_slot] = obj
        elif held != obj:
            return None
    return filled


def one_space(dictionaries: Iterable[TermDictionary]) -> None:
    """Raise ``ValueError`` unless all ``dictionaries`` share one id space.

    The joins compare ids, so operands encoded over two dictionaries would
    join on numbers that name different terms.
    """
    if len({dictionary.space for dictionary in dictionaries}) > 1:
        raise ValueError("the operands' ids come from two dictionaries; encode every site over one")


class SignGroups:
    """One query's operands, listed under their crossing pairs (Theorem 4's join).

    ``by_end[0][pair]`` lists, in arrival order, the operands that carry
    ``pair`` and map its subject internally; ``by_end[1][pair]`` those that
    map its object internally.  Built once per query and discarded with it.
    Theorem 5 is the sign test: operands whose LECSigns overlap never join.
    """

    def __init__(self, query: QueryGraph, operands: Sequence[Tuple[int, Tuple[Pair, ...]]]) -> None:
        self._query = query
        self._operands = operands
        self._ends = ends = query_layout(query).edge_ends
        #: LECSign -> number of operands carrying it.
        self._signs = Counter([sign for sign, _ in operands])
        #: Distinct LECSigns among the operands.
        self.groups = len(self._signs)
        by_subject: Dict[Pair, List[int]] = defaultdict(list)
        by_object: Dict[Pair, List[int]] = defaultdict(list)
        for number, (sign, crossing) in enumerate(operands):
            for pair in crossing:
                _, _, subject, obj = ends[pair[0]]
                if sign >> subject & 1:
                    by_subject[pair].append(number)
                if sign >> obj & 1:
                    by_object[pair].append(number)
        self.by_end = (by_subject, by_object)
        #: Number of ``(pair, end) -> operand`` postings.
        self.index_size = sum(map(len, by_subject.values())) + sum(map(len, by_object.values()))
        self.join_attempts = 0
        self.successful_joins = 0

    def join(self, emit: EmitFn) -> None:
        """Emit every complete combination (Theorem 4) once, full-sign operands on their own.

        Seeds are the operands covering the root — the query vertex the
        fewest operands cover, lowest index first — that :func:`fill` accepts
        on their own, and a partial grows only through its scarcest list
        (:meth:`_extend`).
        """
        query = self._query
        if not self._operands:
            return
        root = min(
            range(query.num_vertices),
            key=lambda vertex: (sum(n for sign, n in self._signs.items() if sign >> vertex & 1), vertex),
        )
        empty: Slots = [None] * (query.num_edges + query.num_vertices)
        for number, (sign, crossing) in enumerate(self._operands):
            if sign == query.full_mask:
                emit((number,))
            elif sign >> root & 1:
                slots = fill(empty, crossing, self._ends)
                if slots is not None:
                    self._extend(sign, crossing, slots, (number,), emit)

    def _extend(
        self, sign: int, pairs: Tuple[Pair, ...], slots: Slots, joined: Tuple[int, ...], emit: EmitFn
    ) -> None:
        """Join a partial combination with the operands of one frontier vertex, and recurse.

        The partial is its LECSign, its crossing pairs, its slots and the
        operand numbers joined so far, in join order.  A frontier vertex is
        one the partial maps through a crossing pair but does not cover.  Of
        the lists of its pairs' uncovered ends the shortest is taken (then
        the lowest vertex, then the partial's pair order); a missing one
        means no operand can complete the partial.
        """
        ends = self._ends
        by_subject, by_object = self.by_end
        chosen: Optional[List[int]] = None
        chosen_vertex = 0
        for pair in pairs:
            _, _, subject, obj = ends[pair[0]]
            for vertex, index in (subject, by_subject), (obj, by_object):
                if sign >> vertex & 1:
                    continue
                listed = index.get(pair)
                if listed is None:
                    return
                if chosen is None or (len(listed), vertex) < (len(chosen), chosen_vertex):
                    chosen, chosen_vertex = listed, vertex
        if chosen is None:
            # Nothing left to reach: the rest of the query lies in another
            # component, which no crossing pair joins.
            return
        operands, full_mask = self._operands, self._query.full_mask
        self.join_attempts += len(chosen)
        for number in chosen:
            other, crossing = operands[number]
            if other & sign:
                continue
            new_slots = fill(slots, crossing, ends)
            if new_slots is None:
                continue
            self.successful_joins += 1
            members = joined + (number,)
            if sign | other == full_mask:
                emit(members)
            else:
                new_pairs = pairs + tuple([pair for pair in crossing if pair not in pairs])
                self._extend(sign | other, new_pairs, new_slots, members, emit)
