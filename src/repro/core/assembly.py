"""Assembly of local partial matches into complete matches (Section V).

After pruning, the coordinator joins the surviving local partial matches
(LPMs) from all sites into complete crossing matches.  Two strategies are
implemented:

* :class:`BasicAssembler` — the join of the original framework [18]: the
  join graph is built over *individual* LPMs and explored with a DFS.  It is
  correct but its join space grows with the number of LPMs; the paper uses
  it as the gStoreD-Basic baseline.
* :class:`LECAssembler` — Algorithm 3: the join of :mod:`repro.core.joins`
  finds each combination of LPMs whose LECSigns (Theorem 5: equal signs
  never join) partition the query vertices once, reading each LPM as its
  ``(internal_mask, crossing)`` and trying as partners only the LPMs listed
  under one crossing pair whose end the partial combination still lacks.
  Each combination's members are merged once (:func:`join_matches
  <repro.core.partial_match.join_matches>`), and the matches come out sorted
  by their vertex-slot ids, so the order of crossing rows depends on the
  answer set alone.

Both assemblers return the same set of complete matches (asserted by the
test-suite); they differ only in how much work they do to find them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from ..rdf.terms import Variable
from ..sparql.bindings import Binding, Row
from ..sparql.query_graph import QueryGraph
from ..store.kernel import query_layout
from .joins import SignGroups, one_space
from .partial_match import LocalPartialMatch, join_matches


@dataclass
class AssemblyOutcome:
    """Result and work counters of one assembly run."""

    matches: List[LocalPartialMatch] = field(default_factory=list)
    #: Join partners tried: every pair for :class:`BasicAssembler`, the LPMs
    #: the join index listed for :class:`LECAssembler`.
    join_attempts: int = 0
    successful_joins: int = 0
    #: LPMs for :class:`BasicAssembler`, distinct LECSigns for :class:`LECAssembler`.
    groups: int = 0
    #: ``(crossing pair, end) -> LPM`` postings of the per-query join index (LEC assembly).
    index_size: int = 0

    def bindings(self) -> List[Binding]:
        return [match.to_binding() for match in self.matches]

    def rows(self, variables: Sequence[Variable]) -> List[Row]:
        """Each match's terms for ``variables``, read from their slots (``None``: bound nowhere)."""
        if not self.matches:
            return []
        first = self.matches[0]
        slots = query_layout(first.query).row_slots(variables)
        term_of = first.dictionary.term_of
        rows = []
        for match in self.matches:
            id_at = dict(match.items).get
            rows.append(tuple([None if (term_id := id_at(slot)) is None else term_of(term_id) for slot in slots]))
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

    def _labelled(self, matches: List[LocalPartialMatch]) -> List[LocalPartialMatch]:
        """The ``matches`` whose edges of each predicate variable carry one label.

        Partial evaluation labels each edge on its own, so a join may give one
        variable two labels; a complete match maps every edge.
        """
        repeated = [edges for edges in query_layout(self._query).labelled if len(edges) > 1]
        return [m for m in matches if all(len({dict(m.items)[e] for e in edges}) == 1 for edges in repeated)]


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
        seen_matches: Set[tuple] = set()
        visited_partials: Set[LocalPartialMatch] = set()
        items = list(lpms)
        outcome.groups = len(items)
        for lpm in items:
            self._emit_if_complete(lpm, outcome, seen_matches)
        for seed in items:
            self._extend(seed, items, outcome, seen_matches, visited_partials)
        outcome.matches = self._labelled(outcome.matches)
        return outcome

    def _emit_if_complete(self, candidate: LocalPartialMatch, outcome: AssemblyOutcome, seen: Set[tuple]) -> bool:
        if not candidate.is_complete(self._query):
            return False
        key = candidate.items
        if key not in seen:
            seen.add(key)
            outcome.matches.append(candidate)
        return True

    def _extend(
        self,
        partial: LocalPartialMatch,
        items: Sequence[LocalPartialMatch],
        outcome: AssemblyOutcome,
        seen_matches: Set[tuple],
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
        """Every crossing match, once each, sorted by vertex-slot ids.

        Raises ``ValueError`` for LPMs of two dictionaries.
        """
        one_space(lpm.dictionary for lpm in lpms)
        outcome = AssemblyOutcome()
        groups = SignGroups(self._query, [(lpm.internal_mask, lpm.crossing) for lpm in lpms])
        found: List[Tuple[int, ...]] = []
        groups.join(found.append)
        base = self._query.num_edges
        keyed = []
        for members in found:
            match = join_matches([lpms[number] for number in members])
            # A complete match maps every query vertex: its items from slot
            # |E_Q| on are its vertex-slot ids, in vertex order.
            keyed.append(([held for slot, held in match.items if slot >= base], members, match))
        keyed.sort(key=lambda entry: entry[:2])
        outcome.matches = self._labelled([match for _, _, match in keyed])
        outcome.groups = groups.groups
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
