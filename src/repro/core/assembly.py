"""Assembly of local partial matches into complete matches (Section V).

After pruning, the coordinator joins the surviving local partial matches
(LPMs) from all sites into complete crossing matches.  Two strategies are
implemented:

* :class:`BasicAssembler` — the join of the original framework [18]: the
  join graph is built over *individual* LPMs and explored with a DFS.  It is
  correct but its join space grows with the number of LPMs; the paper uses
  it as the gStoreD-Basic baseline.
* :class:`LECAssembler` — Algorithm 3: LPMs are first grouped by the
  LECSign of their LEC feature (Theorem 5: same sign ⇒ never joinable), a
  join graph is built over the *groups*, and the DFS explores group
  combinations, joining members pairwise only when the group-level structure
  allows it.  This prunes whole families of join attempts at once; inside a
  group, partners are found by a hash probe on the shared crossing edge
  (:mod:`repro.core.joins`) rather than by scanning it.

Both assemblers return the same set of complete matches (asserted by the
test-suite); they differ only in how much work they do to find them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Sequence, Set, Tuple

from ..rdf.terms import Variable
from ..sparql.bindings import Binding, Row
from ..sparql.query_graph import QueryGraph
from .joins import JoinCompiler, SignGroups
from .partial_match import LocalPartialMatch, join_matches


@dataclass
class AssemblyOutcome:
    """Result and work counters of one assembly run."""

    matches: List[LocalPartialMatch] = field(default_factory=list)
    #: Join partners tried: every pair for :class:`BasicAssembler`, the pairs
    #: the group index yielded for :class:`LECAssembler`.
    join_attempts: int = 0
    successful_joins: int = 0
    groups: int = 0
    #: ``pair -> LPM`` postings of the per-query group index (LEC assembly).
    index_size: int = 0

    def bindings(self) -> List[Binding]:
        return [match.to_binding() for match in self.matches]

    def rows(self, variables: Sequence[Variable]) -> List[Row]:
        """Each match's terms for ``variables``, read from its vertex slots (``None``: no vertex)."""
        if not self.matches:
            return []
        query = self.matches[0].query
        slots = [query.num_edges + query.vertex_index(v) if v in query else None for v in variables]
        rows = []
        for match in self.matches:
            term_at = dict(zip([slot for slot, _ in match.items], match.terms)).get
            rows.append(tuple(map(term_at, slots)))
        return rows

    @property
    def num_matches(self) -> int:
        return len(self.matches)


class BaseAssembler:
    """The interface both assembly strategies share."""

    def __init__(self, query: QueryGraph) -> None:
        self._query = query

    def assemble(self, lpms: Sequence[LocalPartialMatch]) -> AssemblyOutcome:
        raise NotImplementedError


class BasicAssembler(BaseAssembler):
    """The ungrouped join of [18]: DFS over individual local partial matches.

    Every LPM is a seed; each partial result is extended by any joinable LPM.
    A visited-set over partial results keeps the search from re-expanding the
    same intermediate state reached through different join orders, but unlike
    the LEC-based assembler no structural grouping narrows the set of join
    partners that get *attempted* — which is exactly the cost the paper's
    ablation (Fig. 9) measures.
    """

    def assemble(self, lpms: Sequence[LocalPartialMatch]) -> AssemblyOutcome:
        outcome = AssemblyOutcome()
        seen_matches: Set[FrozenSet] = set()
        visited_partials: Set[LocalPartialMatch] = set()
        items = list(lpms)
        outcome.groups = len(items)
        for lpm in items:
            self._emit_if_complete(lpm, outcome, seen_matches)
        for seed in items:
            self._extend(seed, items, outcome, seen_matches, visited_partials)
        return outcome

    def _emit_if_complete(self, candidate: LocalPartialMatch, outcome: AssemblyOutcome, seen: Set[FrozenSet]) -> bool:
        if not candidate.is_complete(self._query):
            return False
        key = candidate.assignment
        if key not in seen:
            seen.add(key)
            outcome.matches.append(candidate)
        return True

    def _extend(
        self,
        partial: LocalPartialMatch,
        items: Sequence[LocalPartialMatch],
        outcome: AssemblyOutcome,
        seen_matches: Set[FrozenSet],
        visited_partials: Set[LocalPartialMatch],
    ) -> None:
        # Every join adds at least one internally-matched query vertex, so a
        # partial covering all vertices is already complete and never needs
        # further extension.
        if partial.internal_mask.bit_count() >= self._query.num_vertices:
            return
        for other in items:
            outcome.join_attempts += 1
            if not partial.can_join(other):
                continue
            outcome.successful_joins += 1
            joined = partial.join(other)
            if self._emit_if_complete(joined, outcome, seen_matches):
                continue
            # The state key must capture everything future joins depend on:
            # the same vertex/edge assignment can be reached through different
            # constituent sets with different crossing edges or internal masks.
            key = joined
            if key in visited_partials:
                continue
            visited_partials.add(key)
            self._extend(joined, items, outcome, seen_matches, visited_partials)


class LECAssembler(BaseAssembler):
    """Algorithm 3: LEC feature-based assembly."""

    def assemble(self, lpms: Sequence[LocalPartialMatch]) -> AssemblyOutcome:
        outcome = AssemblyOutcome()
        # Definition 11: LPMs are grouped by the LECSign of their LEC feature
        # and the group join graph is the one over those features.  Both are
        # compiled and indexed per call (see :mod:`repro.core.joins`).
        compiler = JoinCompiler(self._query)
        operands = [compiler.lpm(lpm) for lpm in lpms]
        # An LPM's crossing pairs come in edge-index order, so equal features
        # have equal pair tuples.
        features = dict.fromkeys((o.sign, o.fragment_id, o.pairs) for o in operands)
        graph = SignGroups(
            self._query,
            [compiler.crossing_operand(sign, fragment, pairs) for sign, fragment, pairs in features],
        ).join_graph()
        groups = SignGroups(self._query, operands)
        seen_matches: Set[Tuple[str, ...]] = set()

        def emit(members: Tuple[int, ...], vertex_slots: Tuple[str, ...]) -> None:
            # A complete match maps every query vertex, so its vertex keys
            # identify its assignment; only new ones are decoded.
            if vertex_slots not in seen_matches:
                seen_matches.add(vertex_slots)
                outcome.matches.append(join_matches([lpms[number] for number in members]))

        groups.join(graph, emit)
        outcome.groups = len(groups.members)
        outcome.join_attempts = groups.join_attempts
        outcome.successful_joins = groups.successful_joins
        outcome.index_size = groups.index_size
        return outcome


def assemble_matches(
    query: QueryGraph,
    lpms: Sequence[LocalPartialMatch],
    use_lec_grouping: bool = True,
) -> AssemblyOutcome:
    """Assemble ``lpms`` into complete matches with the chosen strategy."""
    assembler = LECAssembler(query) if use_lec_grouping else BasicAssembler(query)
    return assembler.assemble(lpms)
