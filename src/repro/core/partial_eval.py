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
   query edges of internally-mapped vertices, one query edge at a time;
3. when none is left the branch is an LPM; other query vertices stay NULL.

**Canonical seed.**  Query edges are ranked (planner order when given, BGP
order otherwise).  An LPM maps a query edge at most once, so exactly one of
its crossing pairs ranks lowest; a branch seeded at rank ``r`` dies the
moment it matches a crossing data edge to a query edge ranked below ``r``.
Every LPM therefore comes out of one seed, once: nothing is deduplicated.

**Representation.**  The search runs on the ids of the site's
:class:`~repro.store.encoding.EncodedGraph`, reading the query's one compiled
form (:func:`~repro.store.kernel.compile_query`): query vertices are slots of
a ``values`` list, query edges bits in rank order (edge and vertex sets are int
masks); vertex classes and ranked crossing edges come from the site's
:class:`~repro.store.fragment_index.FragmentIndex`.  A forced edge with one
free endpoint reads the bound endpoint's ascending row of its label once and
sorts each value in one loop: internal-admissible, extended-admissible (the
canonical-seed rule and the stage-1 bit, tested inline) or dropped; only the
survivors recurse.  An edge between two bound slots is one probe.  Rows
ascend and seeds are sorted, so the LPM *sequence* is the same under every
``PYTHONHASHSEED``.  An LPM is emitted straight from that state in its wire
form (:mod:`repro.core.partial_match`): the ids themselves, which are cluster
ids, so nothing is decoded.  No ``Triple`` or ``frozenset`` is built.  The
LPMs are collected in the :class:`~repro.core.partial_match.LPMList` that
ships them.

The optional ``candidate_filter`` implements the Section VI optimization: an
extended vertex may only be used when the coordinator's global bit vector
says it is an internal candidate of *some* site; an internal one only when it
is one of this site's (:func:`~repro.store.fragment_index.internal_pools`).
An all-zero union vector proves the answer empty (every vertex of a complete
match is an internal candidate of its owner), so the site finds no LPM and
searches nothing (:meth:`~repro.core.candidate_exchange.GlobalCandidateFilter.proves_empty`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..partition.fragment import Fragment
from ..sparql.query_graph import QueryGraph
from ..store.encoding import PREDICATE_ANY
from ..store.fragment_index import FragmentIndex, internal_pools
from ..store.kernel import compile_query
from .candidate_exchange import GlobalCandidateFilter
from .partial_match import LocalPartialMatch, LPMList, check_local_partial_match


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
        fragment: Union[Fragment, FragmentIndex],
        graph: Optional[FragmentIndex] = None,
        paranoid: bool = False,
        edge_order: Optional[Sequence[int]] = None,
    ) -> None:
        """``fragment`` is a site's (:attr:`Site.fragment
        <repro.distributed.site.Site.fragment>`, an index) or a partition-time one."""
        self._fragment = fragment
        #: The site's index (:attr:`Site.graph <repro.distributed.site.Site.graph>`), or one built here.
        if graph is None:
            graph = fragment if isinstance(fragment, FragmentIndex) else FragmentIndex.build(fragment)
        self._index = graph
        #: Re-check every produced LPM against Definition 5 and raise on a
        #: violation (slower; for tests).
        self._paranoid = paranoid
        #: Planner-supplied ranking of query-edge indexes (most selective
        #: first): decides which seed an LPM comes out of and which forced
        #: edge a branch matches next — never which LPMs exist.
        self._edge_order = edge_order

    def evaluate(
        self,
        query: QueryGraph,
        candidate_filter: Optional[GlobalCandidateFilter] = None,
    ) -> PartialEvaluationResult:
        """Enumerate every local partial match of ``query`` in this fragment: none if ``candidate_filter.proves_empty()``."""
        fragment = self._fragment
        if self._paranoid and isinstance(fragment, FragmentIndex):
            fragment = fragment.decoded()  # Definition 5 is checked on terms
        result = PartialEvaluationResult(fragment_id=fragment.fragment_id)
        if candidate_filter is not None and candidate_filter.proves_empty():
            return result
        index = self._index
        encoded, crossing_by_predicate = index.encoded, index.crossing_by_predicate
        internal, extended = index.internal, index.extended
        triple_ids, dictionary = encoded.triple_ids, encoded.dictionary

        # The compiled query: vertices are slots, edges bits in rank order.
        compiled = compile_query(query, dictionary)
        vertices, constant = query.vertices, compiled.constants
        edges, incident, by_index = compiled.ranked(self._edge_order)
        # The stage-1 vector each variable is filtered by (None: unfiltered).
        vectors = [
            candidate_filter.vectors.get(vertex) if candidate_filter is not None and code is None else None
            for vertex, code in zip(vertices, constant)
        ]
        filter_bits = [None if vector is None else vector.bits for vector in vectors]
        # Each filtered slot's id -> bit table at its vector's width.
        positions = [None if vector is None else dictionary.bit_positions(vector.width) for vector in vectors]
        # The internal values each slot may take: with the filter, the site's own candidates.
        own = internal_pools(index, query) if candidate_filter is not None else None
        allowed = [internal if own is None else own[vertex] for vertex in vertices]

        values: List[Optional[int]] = [None] * len(vertices)
        # Each rank's matched predicate id: its code, or a variable predicate's label.
        labels = [code for _, _, code, _ in edges]
        out_columns = [None if code == PREDICATE_ANY else encoded.out_column(code) for _, _, code, _ in edges]
        in_columns = [None if code == PREDICATE_ANY else encoded.in_column(code) for _, _, code, _ in edges]
        fragments = frozenset({fragment.fragment_id})
        vertex_base = len(edges)

        def emit(matched: int, internal_mask: int) -> None:
            items, crossing = [], []
            for edge_index, rank, subject_slot, object_slot in by_index:
                if matched >> rank & 1:
                    label = labels[rank]
                    items.append((edge_index, label))
                    if not internal_mask >> subject_slot & internal_mask >> object_slot & 1:
                        crossing.append((edge_index, values[subject_slot], label, values[object_slot]))
            items += [(vertex_base + slot, value) for slot, value in enumerate(values) if value is not None]
            lpm = LocalPartialMatch(fragments, query, tuple(items), dictionary, internal_mask, tuple(crossing))
            if self._paranoid:
                violations = check_local_partial_match(lpm, query, fragment)
                if violations:
                    raise RuntimeError(f"fragment {fragment.name}: {lpm!r} breaks Definition 5: {violations}")
            result.local_partial_matches.append(lpm)

        def descend(
            rank: int, slot: int, row: Sequence[int], forced: int, matched: int, internal_mask: int
        ) -> None:
            """Bind the free ``slot`` of edge ``rank`` to each admissible value of ``row`` and search on.

            A value is internal-admissible (in the slot's ``allowed`` pool), or
            extended-admissible: extended, at or above the seed's rank (the
            canonical-seed rule) and kept by the stage-1 filter; or dropped.
            """
            pool, bits, bit_of = allowed[slot], filter_bits[slot], positions[slot]
            open_to_extended = rank >= seed_rank
            forced_if_internal, mask_if_internal = forced | incident[slot], internal_mask | 1 << slot
            for value in row:
                if value in pool:
                    values[slot] = value
                    expand(forced_if_internal, matched, mask_if_internal)
                elif open_to_extended and value in extended:
                    if bits is not None and not bits >> bit_of[value] & 1:
                        result.branches_pruned_by_filter += 1
                        continue
                    values[slot] = value
                    expand(forced, matched, internal_mask)
            values[slot] = None

        def expand(forced: int, matched: int, internal_mask: int) -> None:
            """Match the lowest-ranked edge condition 5 still forces, or emit.

            At least one endpoint of that edge is bound (an internally mapped
            one forces it).  With one free variable endpoint and a constant
            predicate, that endpoint's values are one sorted neighbour row;
            with both bound, the edge is one probe.  A variable predicate or
            a free constant endpoint reads the matching triples instead.
            """
            pending = forced & ~matched
            if not pending:
                emit(matched, internal_mask)
                return
            rank = (pending & -pending).bit_length() - 1
            subject_slot, object_slot, code, _ = edges[rank]
            subject, obj = values[subject_slot], values[object_slot]
            matched |= 1 << rank
            if subject is not None and obj is not None:
                # A crossing edge ranked below the seed kills the branch.
                if rank >= seed_rank or internal_mask >> subject_slot & internal_mask >> object_slot & 1:
                    if code != PREDICATE_ANY:
                        if out_columns[rank].has(subject, obj):
                            expand(forced, matched, internal_mask)
                    else:
                        for ids in triple_ids(subject, code, obj):
                            labels[rank] = ids[1]
                            expand(forced, matched, internal_mask)
                return
            slot = subject_slot if subject is None else object_slot
            if code != PREDICATE_ANY and constant[slot] is None:
                row = in_columns[rank].row(obj) if subject is None else out_columns[rank].row(subject)
                descend(rank, slot, row, forced, matched, internal_mask)
                return
            if subject is None:
                subject = constant[slot]
            else:
                obj = constant[slot]
            for ids in triple_ids(subject, code, obj):
                labels[rank] = ids[1]
                value = ids[0] if slot == subject_slot else ids[2]
                descend(rank, slot, (value,), forced, matched, internal_mask)

        for seed_rank, (subject_slot, object_slot, code, _) in enumerate(edges):
            seeds = index.crossing if code == PREDICATE_ANY else crossing_by_predicate.get(code, ())
            subject_constant, object_constant = constant[subject_slot], constant[object_slot]
            subject_pool, object_pool = allowed[subject_slot], allowed[object_slot]
            subject_bits, object_bits = filter_bits[subject_slot], filter_bits[object_slot]
            subject_bit_of, object_bit_of = positions[subject_slot], positions[object_slot]
            matched = 1 << seed_rank
            for s, p, o in seeds:
                if subject_constant not in (None, s) or object_constant not in (None, o):
                    continue
                result.seeds_explored += 1
                # The endpoint tests of ``descend``, subject first (a crossing
                # edge never loops, so a self-loop query edge takes no seed).
                if s in subject_pool:
                    forced, internal_mask = incident[subject_slot], 1 << subject_slot
                elif s not in extended:
                    continue
                elif subject_bits is not None and not subject_bits >> subject_bit_of[s] & 1:
                    result.branches_pruned_by_filter += 1
                    continue
                else:
                    forced = internal_mask = 0
                if object_slot == subject_slot:
                    continue
                if o in object_pool:
                    forced |= incident[object_slot]
                    internal_mask |= 1 << object_slot
                elif o not in extended:
                    continue
                elif object_bits is not None and not object_bits >> object_bit_of[o] & 1:
                    result.branches_pruned_by_filter += 1
                    continue
                values[subject_slot], values[object_slot], labels[seed_rank] = s, o, p
                expand(forced, matched, internal_mask)
                values[subject_slot] = values[object_slot] = None
        del descend, expand  # free the call's state (and query pools) now, not at a GC pass
        return result


def evaluate_fragment(
    fragment: Union[Fragment, FragmentIndex],
    query: QueryGraph,
    graph: Optional[FragmentIndex] = None,
    candidate_filter: Optional[GlobalCandidateFilter] = None,
    paranoid: bool = False,
    edge_order: Optional[Sequence[int]] = None,
) -> PartialEvaluationResult:
    """Convenience wrapper: enumerate the LPMs of ``query`` over ``fragment``."""
    evaluator = PartialEvaluator(fragment, graph=graph, paranoid=paranoid, edge_order=edge_order)
    return evaluator.evaluate(query, candidate_filter=candidate_filter)
