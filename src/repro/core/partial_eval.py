"""Partial evaluation: enumerating local partial matches inside one fragment.

Each site receives the full query graph and enumerates, against only its own
fragment, every local partial match of Definition 5.  The algorithm is the
one from the original "partial evaluation and assembly" framework [18]
(which this paper re-uses unchanged — its contributions start *after* the
LPMs exist), implemented as a crossing-edge-seeded expansion:

1. every LPM contains at least one crossing edge, so each (query edge,
   compatible crossing data edge) pair seeds one search branch;
2. a query vertex mapped to an *internal* vertex must have all of its query
   edges matched (condition 5), so the branch keeps matching the unmatched
   query edges of internally-mapped vertices, one data edge at a time;
3. when none is left the branch is an LPM; other query vertices stay NULL.

**Canonical seed.**  Query edges are ranked (planner order when given, BGP
order otherwise).  An LPM maps a query edge at most once, so exactly one of
its crossing pairs ranks lowest; a branch seeded at rank ``r`` dies the
moment it matches a crossing data edge to a query edge ranked below ``r``.
Every LPM therefore comes out of one seed, once: nothing is deduplicated.

**Representation.**  The search runs on the ids of the site's
:class:`~repro.store.encoding.EncodedGraph`: query vertices are slots of a
``values`` list, query edges are bits in rank order (edge and vertex sets are
int masks), vertex classes and ranked crossing edges come from the site's
:class:`~repro.store.fragment_index.FragmentIndex`, extensions are ascending
:meth:`EncodedGraph.triple_ids` probes — so the LPM *sequence* is the same
under every ``PYTHONHASHSEED``.  An LPM is emitted straight from that state
in its wire form (:mod:`repro.core.partial_match`): the ids themselves, which
are cluster ids, so nothing is decoded.  No ``Triple`` or ``frozenset`` is
built.  The LPMs are collected in the :class:`~repro.core.partial_match.LPMList`
that ships them.

The optional ``candidate_filter`` implements the Section VI optimization: an
extended vertex may only be used when the coordinator's global bit vector
says it is an internal candidate of *some* site; an internal one only when it
is one of this site's (:func:`~repro.store.fragment_index.internal_pools`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..partition.fragment import Fragment
from ..rdf.terms import Variable
from ..sparql.query_graph import QueryGraph
from ..store.encoding import PREDICATE_ANY, predicate_code
from ..store.fragment_index import FragmentIndex, IdTriple, internal_pools
from .candidate_exchange import GlobalCandidateFilter
from .partial_match import LocalPartialMatch, LPMList, check_local_partial_match

#: Id of a constant query vertex the fragment never stores: no data vertex has it.
_ABSENT_VERTEX = -1


@dataclass
class PartialEvaluationResult:
    """Output of one site's partial evaluation."""

    fragment_id: int
    local_partial_matches: LPMList = field(default_factory=LPMList)
    seeds_explored: int = 0
    #: Extended-vertex bindings the stage-1 filter refused, one per branch.
    branches_pruned_by_filter: int = 0

    @property
    def count(self) -> int:
        return len(self.local_partial_matches)


class PartialEvaluator:
    """Enumerates the local partial matches of a query over one fragment."""

    def __init__(
        self,
        fragment: Fragment,
        graph: Optional[FragmentIndex] = None,
        paranoid: bool = False,
        edge_order: Optional[Sequence[int]] = None,
    ) -> None:
        self._fragment = fragment
        #: The site's index of ``fragment`` (:attr:`Site.graph
        #: <repro.distributed.site.Site.graph>`), or one built here.
        self._index = graph if graph is not None else FragmentIndex.build(fragment)
        #: Re-check every produced LPM against Definition 5 (slower; for tests).
        self._paranoid = paranoid
        #: Planner-supplied ranking of query-edge indexes (most selective
        #: first): decides which seed an LPM comes out of and which forced
        #: edge a branch matches next — never which LPMs exist.
        self._edge_priority: Dict[int, int] = (
            {index: rank for rank, index in enumerate(edge_order)} if edge_order is not None else {}
        )

    def evaluate(
        self,
        query: QueryGraph,
        candidate_filter: Optional[GlobalCandidateFilter] = None,
    ) -> PartialEvaluationResult:
        """Enumerate every local partial match of ``query`` in this fragment."""
        fragment = self._fragment
        result = PartialEvaluationResult(fragment_id=fragment.fragment_id)
        index = self._index
        encoded, crossing_by_predicate = index.encoded, index.crossing_by_predicate
        internal, extended = index.internal, index.extended
        triple_ids, dictionary = encoded.triple_ids, encoded.dictionary

        # Compile the query: vertices to slots, edges to bits in rank order.
        vertices = query.vertices
        constant: List[Optional[int]] = [
            None if isinstance(vertex, Variable)
            else _ABSENT_VERTEX if (code := dictionary.get(vertex)) is None else code
            for vertex in vertices
        ]
        # The stage-1 vector each variable is filtered by (None: unfiltered).
        vectors = [
            candidate_filter.vectors.get(vertex) if candidate_filter is not None and code is None else None
            for vertex, code in zip(vertices, constant)
        ]
        filtered = [vector is not None for vector in vectors]
        # Each filtered slot's id -> bit table at its vector's width.
        positions = [None if vector is None else dictionary.bit_positions(vector.width) for vector in vectors]
        # The internal values each slot may take: with the filter, the site's own candidates.
        own = internal_pools(index, query) if candidate_filter is not None else None
        allowed = [internal if own is None else own[vertex] for vertex in vertices]
        priority = self._edge_priority
        ranked = sorted(query.edges, key=lambda edge: (priority.get(edge.index, edge.index), edge.index))
        slot_of = query.vertex_index
        edges: List[Tuple[int, int, int, int]] = [
            (slot_of(edge.subject), slot_of(edge.object), predicate_code(encoded, edge.predicate), edge.index)
            for edge in ranked
        ]
        incident = [0] * len(vertices)
        for rank, (subject_slot, object_slot, _, _) in enumerate(edges):
            incident[subject_slot] |= 1 << rank
            incident[object_slot] |= 1 << rank

        values: List[Optional[int]] = [None] * len(vertices)
        edge_map: List[Optional[IdTriple]] = [None] * len(edges)
        fragments = frozenset({fragment.fragment_id})
        # Emission order: edge slots by index, then vertex slots.
        by_index = sorted(range(len(edges)), key=lambda rank: edges[rank][3])
        vertex_base = len(edges)

        def refused(slot: int, value: int) -> bool:
            """Does the stage-1 filter forbid binding ``slot`` to extended ``value``?"""
            if vectors[slot].bits >> positions[slot][value] & 1:
                return False
            result.branches_pruned_by_filter += 1
            return True

        def emit(matched: int, internal_mask: int) -> None:
            items, crossing = [], []
            for rank in by_index:
                if not matched >> rank & 1:
                    continue
                subject_slot, object_slot, _, edge_index = edges[rank]
                subject, predicate, obj = edge_map[rank]
                items.append((edge_index, predicate))
                if not internal_mask >> subject_slot & internal_mask >> object_slot & 1:
                    crossing.append((edge_index, subject, predicate, obj))
            for slot, value in enumerate(values):
                if value is not None:
                    items.append((vertex_base + slot, value))
            lpm = LocalPartialMatch(fragments, query, tuple(items), dictionary, internal_mask, tuple(crossing))
            if not (self._paranoid and check_local_partial_match(lpm, query, fragment)):
                result.local_partial_matches.append(lpm)

        def match(rank: int, ids: IdTriple, forced: int, matched: int, internal_mask: int) -> None:
            """Map query edge ``rank`` to data edge ``ids`` and search on, if Definition 5 allows.

            A crossing edge (one endpoint extended) ranked below the seed kills
            the branch — the canonical-seed rule — before the filter is asked.
            """
            subject_slot, object_slot, _, _ = edges[rank]
            bound = []
            for slot, value in ((subject_slot, ids[0]), (object_slot, ids[2])):
                current = values[slot]
                if current is None:
                    if value in allowed[slot]:
                        forced |= incident[slot]
                        internal_mask |= 1 << slot
                    elif value not in extended or rank < seed_rank or (filtered[slot] and refused(slot, value)):
                        break
                    values[slot] = value
                    bound.append(slot)
                elif current != value:
                    break
            else:
                if rank >= seed_rank or internal_mask >> subject_slot & internal_mask >> object_slot & 1:
                    edge_map[rank] = ids
                    expand(forced, matched | 1 << rank, internal_mask)
            for slot in bound:
                values[slot] = None

        def expand(forced: int, matched: int, internal_mask: int) -> None:
            """Match the lowest-ranked edge condition 5 still forces, or emit.

            At most one endpoint of that edge is still NULL (the internally mapped
            other one forces it); a NULL constant endpoint is probed as the constant.
            """
            pending = forced & ~matched
            if not pending:
                emit(matched, internal_mask)
                return
            rank = (pending & -pending).bit_length() - 1
            subject_slot, object_slot, code, _ = edges[rank]
            subject, obj = values[subject_slot], values[object_slot]
            if subject is None:
                subject = constant[subject_slot]
            elif obj is None:
                obj = constant[object_slot]
            for ids in triple_ids(subject, code, obj):
                match(rank, ids, forced, matched, internal_mask)

        for seed_rank, (subject_slot, object_slot, code, _) in enumerate(edges):
            seeds = index.crossing if code == PREDICATE_ANY else crossing_by_predicate.get(code, ())
            subject_constant, object_constant = constant[subject_slot], constant[object_slot]
            for ids in seeds:
                if subject_constant in (None, ids[0]) and object_constant in (None, ids[2]):
                    result.seeds_explored += 1
                    match(seed_rank, ids, 0, 0, 0)
        del match, expand  # free the call's state (and query pools) now, not at a GC pass
        return result


def evaluate_fragment(
    fragment: Fragment,
    query: QueryGraph,
    graph: Optional[FragmentIndex] = None,
    candidate_filter: Optional[GlobalCandidateFilter] = None,
    paranoid: bool = False,
    edge_order: Optional[Sequence[int]] = None,
) -> PartialEvaluationResult:
    """Convenience wrapper: enumerate the LPMs of ``query`` over ``fragment``."""
    evaluator = PartialEvaluator(fragment, graph=graph, paranoid=paranoid, edge_order=edge_order)
    return evaluator.evaluate(query, candidate_filter=candidate_filter)
