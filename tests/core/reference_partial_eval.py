"""The object-level partial evaluator, kept verbatim as the test oracle.

Until the canonical-seed, integer enumerator of
:mod:`repro.core.partial_eval` replaced it, this file *was*
``src/repro/core/partial_eval.py``: every local partial match is re-found from
every crossing edge it contains and the copies are dropped on a ``frozenset``
key, over ``Node``/``Triple``-keyed dictionaries.  Nothing in ``src/`` runs
this path any more; ``tests/core/test_partial_eval_differential.py`` asserts
that the new enumerator returns the same *set* of LPMs per fragment, each
exactly once.  Only the imports, :func:`build_lpm` (which was
``LocalPartialMatch.build`` in ``src/`` and now builds the key form of an LPM
from object-level state), :func:`filter_allows` (which was
``GlobalCandidateFilter.allows`` in ``src/``, whose encoded path asks the
bit vectors directly), the ``ValueError`` guard around its one call and this
paragraph differ from the code that was removed.  One known defect is
kept on purpose: a *self-loop* query edge seeded from a crossing data edge
overwrites its own endpoint in ``_expand_seed`` and emits a match Definition 5
rejects (``build_lpm`` refuses it), so comparisons on self-loop queries use
``paranoid=True`` here.

The original module docstring follows.

Partial evaluation: enumerating local partial matches inside one fragment.

Each site receives the full query graph and enumerates, against only its own
fragment, every local partial match of Definition 5.  The algorithm is the
one from the original "partial evaluation and assembly" framework [18]
(which this paper re-uses unchanged — its contributions start *after* the
LPMs exist), implemented as a crossing-edge-seeded expansion:

1. every LPM contains at least one crossing edge, so each (crossing data
   edge, compatible query edge) pair seeds one search branch;
2. a query vertex mapped to an *internal* vertex must have all of its query
   edges matched (condition 5), so the search repeatedly picks an
   internally-mapped query vertex with an unmatched incident query edge and
   branches over the fragment data edges that can extend it;
3. when no internal vertex has unmatched edges left, the branch has produced
   a candidate LPM; the remaining query vertices stay NULL, and the
   Definition 5 side conditions are verified.

Seeding from every crossing edge makes the enumeration complete (every LPM's
internally-matched region touches at least one crossing edge); a final
dedup by assignment removes the copies found from different seeds.

The optional ``candidate_filter`` implements the Section VI optimization: an
extended vertex may only be used when the coordinator's global bit vector
says it is an internal candidate of *some* site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.partition.fragment import Fragment
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import IRI, Literal, Node, PatternTerm, Variable
from repro.rdf.triples import Triple
from repro.sparql.query_graph import QueryEdge, QueryGraph
from repro.core.candidate_exchange import GlobalCandidateFilter
from repro.core.partial_match import LocalPartialMatch, check_local_partial_match


@dataclass
class PartialEvaluationResult:
    """Output of one site's partial evaluation."""

    fragment_id: int
    local_partial_matches: List[LocalPartialMatch] = field(default_factory=list)
    seeds_explored: int = 0
    branches_pruned_by_filter: int = 0

    @property
    def count(self) -> int:
        return len(self.local_partial_matches)


class PartialEvaluator:
    """Enumerates the local partial matches of a query over one fragment."""

    def __init__(
        self,
        fragment: Fragment,
        graph: Optional[RDFGraph] = None,
        paranoid: bool = False,
        edge_order: Optional[Sequence[int]] = None,
    ) -> None:
        self._fragment = fragment
        self._graph = graph if graph is not None else fragment.to_graph()
        #: ``V_i ∪ Ve_i`` snapshotted once — ``Fragment.all_vertices`` builds
        #: a fresh union set per call, far too expensive for the per-branch
        #: assignment check in :meth:`_try_assign`.
        self._local_vertices = fragment.all_vertices
        #: When True, every produced LPM is re-checked against Definition 5
        #: (slower; used by tests).
        self._paranoid = paranoid
        #: Planner-supplied ranking of query-edge indexes (most selective
        #: first).  Changes which forced edge each branch matches next —
        #: never which LPMs exist — so selective edges fail branches early.
        self._edge_priority: Optional[Dict[int, int]] = (
            {index: rank for rank, index in enumerate(edge_order)} if edge_order is not None else None
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        query: QueryGraph,
        candidate_filter: Optional[GlobalCandidateFilter] = None,
    ) -> PartialEvaluationResult:
        """Enumerate every local partial match of ``query`` in this fragment."""
        result = PartialEvaluationResult(fragment_id=self._fragment.fragment_id)
        seen: Set[Tuple[frozenset, frozenset]] = set()
        for query_edge in self._seed_edges(query):
            for data_edge in self._compatible_crossing_edges(query_edge):
                result.seeds_explored += 1
                self._expand_seed(query, query_edge, data_edge, candidate_filter, seen, result)
        return result

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def _edge_rank(self, edge_index: int) -> int:
        """The planner rank of a query edge (its own index when unplanned)."""
        if self._edge_priority is None:
            return edge_index
        return self._edge_priority.get(edge_index, edge_index)

    def _seed_edges(self, query: QueryGraph) -> List[QueryEdge]:
        """Query edges in seeding order (planner-ranked when available)."""
        if self._edge_priority is None:
            return list(query.edges)
        return sorted(query.edges, key=lambda edge: (self._edge_rank(edge.index), edge.index))

    def _compatible_crossing_edges(self, query_edge: QueryEdge) -> Iterable[Triple]:
        """Crossing edges of the fragment that can match ``query_edge``."""
        for triple in self._fragment.crossing_edges:
            if self._edge_label_matches(query_edge, triple) and self._endpoints_compatible(
                query_edge, triple
            ):
                yield triple

    @staticmethod
    def _edge_label_matches(query_edge: QueryEdge, triple: Triple) -> bool:
        if isinstance(query_edge.predicate, Variable):
            return True
        return query_edge.predicate == triple.predicate

    @staticmethod
    def _endpoints_compatible(query_edge: QueryEdge, triple: Triple) -> bool:
        if isinstance(query_edge.subject, (IRI, Literal)) and query_edge.subject != triple.subject:
            return False
        if isinstance(query_edge.object, (IRI, Literal)) and query_edge.object != triple.object:
            return False
        return True

    def _expand_seed(
        self,
        query: QueryGraph,
        query_edge: QueryEdge,
        data_edge: Triple,
        candidate_filter: Optional[GlobalCandidateFilter],
        seen: Set[Tuple[frozenset, frozenset]],
        result: PartialEvaluationResult,
    ) -> None:
        mapping: Dict[PatternTerm, Node] = {}
        edge_mapping: Dict[int, Triple] = {}
        if not self._try_assign(query_edge.subject, data_edge.subject, mapping, candidate_filter, result):
            return
        if not self._try_assign(query_edge.object, data_edge.object, mapping, candidate_filter, result):
            return
        edge_mapping[query_edge.index] = data_edge
        self._expand(query, mapping, edge_mapping, candidate_filter, seen, result)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def _expand(
        self,
        query: QueryGraph,
        mapping: Dict[PatternTerm, Node],
        edge_mapping: Dict[int, Triple],
        candidate_filter: Optional[GlobalCandidateFilter],
        seen: Set[Tuple[frozenset, frozenset]],
        result: PartialEvaluationResult,
    ) -> None:
        pending = self._next_forced_edge(query, mapping, edge_mapping)
        if pending is None:
            self._emit(query, mapping, edge_mapping, seen, result)
            return
        query_edge, anchor_vertex = pending
        for data_edge in self._extension_edges(query_edge, anchor_vertex, mapping):
            new_vertex, new_value = self._new_assignment(query_edge, anchor_vertex, data_edge)
            added_vertex = False
            if new_vertex is not None:
                existing = mapping.get(new_vertex)
                if existing is not None:
                    if existing != new_value:
                        continue
                else:
                    if not self._try_assign(new_vertex, new_value, mapping, candidate_filter, result):
                        continue
                    added_vertex = True
            edge_mapping[query_edge.index] = data_edge
            self._expand(query, mapping, edge_mapping, candidate_filter, seen, result)
            del edge_mapping[query_edge.index]
            if added_vertex and new_vertex is not None:
                del mapping[new_vertex]

    def _next_forced_edge(
        self,
        query: QueryGraph,
        mapping: Dict[PatternTerm, Node],
        edge_mapping: Dict[int, Triple],
    ) -> Optional[Tuple[QueryEdge, PatternTerm]]:
        """The next (query edge, internally-mapped anchor) that condition 5 forces us to match.

        All forced edges must be matched eventually, so any pick is correct;
        with a planner-supplied edge order the most selective forced edge is
        matched first so doomed branches die with the least work.
        """
        best: Optional[Tuple[QueryEdge, PatternTerm]] = None
        best_rank: Optional[int] = None
        for vertex, value in mapping.items():
            if not self._fragment.is_internal(value):
                continue
            for edge in query.edges_of(vertex):
                if edge.index in edge_mapping:
                    continue
                if self._edge_priority is None:
                    return edge, vertex
                rank = self._edge_rank(edge.index)
                if best_rank is None or rank < best_rank:
                    best = (edge, vertex)
                    best_rank = rank
        return best

    def _extension_edges(
        self,
        query_edge: QueryEdge,
        anchor_vertex: PatternTerm,
        mapping: Dict[PatternTerm, Node],
    ) -> Iterable[Triple]:
        """Fragment data edges that can match ``query_edge`` from the anchor's value."""
        anchor_value = mapping[anchor_vertex]
        predicate = None if isinstance(query_edge.predicate, Variable) else query_edge.predicate
        if query_edge.subject == anchor_vertex:
            other_vertex = query_edge.object
            other_value = mapping.get(other_vertex)
            if other_value is None and isinstance(other_vertex, (IRI, Literal)):
                other_value = other_vertex
            candidates = self._graph.triples(anchor_value, predicate, other_value)
        else:
            other_vertex = query_edge.subject
            other_value = mapping.get(other_vertex)
            if other_value is None and isinstance(other_vertex, (IRI, Literal)):
                other_value = other_vertex
            candidates = self._graph.triples(other_value, predicate, anchor_value)
        yield from candidates

    @staticmethod
    def _new_assignment(
        query_edge: QueryEdge,
        anchor_vertex: PatternTerm,
        data_edge: Triple,
    ) -> Tuple[Optional[PatternTerm], Optional[Node]]:
        """The (query vertex, data vertex) pair the extension would newly assign."""
        if query_edge.subject == anchor_vertex:
            return query_edge.object, data_edge.object
        return query_edge.subject, data_edge.subject

    def _try_assign(
        self,
        vertex: PatternTerm,
        value: Node,
        mapping: Dict[PatternTerm, Node],
        candidate_filter: Optional[GlobalCandidateFilter],
        result: PartialEvaluationResult,
    ) -> bool:
        """Assign ``vertex -> value`` if the Definition 5 local conditions allow it."""
        if isinstance(vertex, (IRI, Literal)):
            if vertex != value:
                return False
        if value not in self._local_vertices:
            return False
        if (
            candidate_filter is not None
            and isinstance(vertex, Variable)
            and self._fragment.is_extended(value)
            and not filter_allows(candidate_filter, vertex, value)
        ):
            result.branches_pruned_by_filter += 1
            return False
        mapping[vertex] = value
        return True

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(
        self,
        query: QueryGraph,
        mapping: Dict[PatternTerm, Node],
        edge_mapping: Dict[int, Triple],
        seen: Set[Tuple[frozenset, frozenset]],
        result: PartialEvaluationResult,
    ) -> None:
        key = (frozenset(mapping.items()), frozenset(edge_mapping.items()))
        if key in seen:
            return
        seen.add(key)
        crossing_indexes = {
            index for index, triple in edge_mapping.items() if triple in self._fragment.crossing_edges
        }
        if not crossing_indexes:
            return
        try:
            lpm = build_lpm(
                fragment_id=self._fragment.fragment_id,
                mapping=mapping,
                edge_mapping=edge_mapping,
                crossing_edge_indexes=crossing_indexes,
                query=query,
                fragment=self._fragment,
            )
        except ValueError:
            # The self-loop defect above: Definition 5 rejects the match, and
            # an LPM's key form cannot even hold it.
            if self._paranoid:
                return
            raise
        if self._paranoid and check_local_partial_match(lpm, query, self._fragment):
            return
        result.local_partial_matches.append(lpm)


def filter_allows(candidate_filter: GlobalCandidateFilter, variable: Variable, candidate: Node) -> bool:
    """May ``candidate`` be bound to ``variable``?

    Unknown variables are never restricted (the filter is only ever a
    sound over-approximation).
    """
    vector = candidate_filter.vectors.get(variable)
    if vector is None:
        return True
    return vector.might_contain(candidate)


def evaluate_fragment(
    fragment: Fragment,
    query: QueryGraph,
    graph: Optional[RDFGraph] = None,
    candidate_filter: Optional[GlobalCandidateFilter] = None,
    paranoid: bool = False,
    edge_order: Optional[Sequence[int]] = None,
) -> PartialEvaluationResult:
    """Convenience wrapper: enumerate the LPMs of ``query`` over ``fragment``."""
    evaluator = PartialEvaluator(fragment, graph=graph, paranoid=paranoid, edge_order=edge_order)
    return evaluator.evaluate(query, candidate_filter=candidate_filter)


def build_lpm(
    fragment_id: int,
    mapping: Mapping[PatternTerm, Node],
    edge_mapping: Mapping[int, Triple],
    crossing_edge_indexes: Set[int],
    query: QueryGraph,
    fragment: Fragment,
) -> LocalPartialMatch:
    """Build an LPM from object-level working state.

    Keys are ``term.n3()``, computed here independently of the evaluator.  A
    matched edge's item holds only its predicate (the mapped endpoints pin
    the rest), so a data edge that does not connect them raises
    ``ValueError``.
    """
    for index, triple in edge_mapping.items():
        edge = query.edge_at(index)
        if (mapping.get(edge.subject), mapping.get(edge.object)) != (triple.subject, triple.object):
            raise ValueError(f"data edge {triple.n3()} does not connect the endpoints of query edge #{index}")
    internal_mask = 0
    for vertex, value in mapping.items():
        if fragment.is_internal(value):
            internal_mask |= 1 << query.vertex_index(vertex)
    base = query.num_edges
    slots: Dict[int, Node] = {index: triple.predicate for index, triple in edge_mapping.items()}
    for vertex, value in mapping.items():
        slots[base + query.vertex_index(vertex)] = value
    order = sorted(slots)
    crossing = sorted(
        (index, triple.subject.n3(), triple.predicate.n3(), triple.object.n3())
        for index, triple in edge_mapping.items()
        if index in crossing_edge_indexes
    )
    return LocalPartialMatch(
        frozenset({fragment_id}),
        query,
        tuple((slot, slots[slot].n3()) for slot in order),
        tuple(slots[slot] for slot in order),
        internal_mask,
        tuple(crossing),
    )
