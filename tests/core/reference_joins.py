"""The nested-loop coordinator joins, kept verbatim as the test oracle.

Until the indexed join of :mod:`repro.core.joins` replaced them, these were
``core/lec.py`` (Definition 9 on ``frozenset[(int, Triple)]`` crossing maps,
``JoinedLECFeature``, ``build_join_graph``), ``core/pruning.py``
(``LECFeaturePruner``, Algorithm 2) and ``core/assembly.py``
(``LECAssembler``, Algorithm 3): every ``partials x group`` pair is tested
with object-level set intersections.  Nothing in ``src/`` runs this path any
more; ``tests/property/test_property_joins.py`` asserts that the production
join returns the same surviving features, each member set the pruner below
emits (``LECFeaturePruner.emitted``, recorded beside the unchanged search)
exactly once, and the matches below in vertex-slot order.  Only the imports
and that record differ from the code that was removed.

Since LPMs and features cross as cluster ids, the assembler below tests
Definition 9 with :func:`lpms_joinable` on the LPMs' decoded views (the
object-level ``can_join`` they had), so the id-based joins are checked
against term objects.  Also here, because nothing in ``src/`` calls them:
:func:`group_features_by_sign` (``repro.core.lec``'s grouping, until it
moved); :func:`pairs_joinable` and :func:`crossing_features_joinable`,
Definition 9 between two operands as the production join tests it (the
pairwise ``joinable`` it had until operands became their crossing pairs);
and :func:`lec_feature`, which builds a feature's id form from object-level
``(index, Triple)`` pairs.

Two more oracles belong to the messages around Algorithm 2.
:func:`echo_survivors` and :func:`echo_filter` are the survivor exchange as it
was before survivors went back as positions: the coordinator echoed each
site's surviving features, and the site kept the classes found in that set.
:func:`recount_lpm_message` and :func:`recount_feature_message` size the
table wire form from the decoded terms, independently of the production
accounting; survivor LPMs leave out the keys of their site's features
(:func:`feature_keys`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.assembly import AssemblyOutcome
from repro.core.joins import fill
from repro.core.lec import LECFeature, lec_feature_of
from repro.core.partial_match import LocalPartialMatch, Pair
from repro.core.pruning import PruningOutcome
from repro.rdf.triples import Triple
from repro.sparql.query_graph import QueryGraph
from repro.store.encoding import TermDictionary
from repro.store.kernel import query_layout


def edge_ends(query: QueryGraph):
    """Each query edge's subject and object slots, then vertices, by edge index."""
    return query_layout(query).edge_ends


def lec_feature(
    fragment_id: int,
    crossing_map: Iterable[Tuple[int, Triple]],
    lec_sign: int,
    dictionary: Optional[TermDictionary] = None,
) -> LECFeature:
    """The LEC feature whose ``g`` maps these (query edge index, data edge) pairs.

    Ids are ``dictionary``'s (terms it lacks are appended), by default a
    fresh one over the pairs' terms.
    """
    crossing_map = list(crossing_map)
    if dictionary is None:
        dictionary = TermDictionary(term for _, triple in crossing_map for term in triple.as_tuple())
    ensure = dictionary.ensure
    crossing = sorted(
        (index, ensure(triple.subject), ensure(triple.predicate), ensure(triple.object))
        for index, triple in crossing_map
    )
    feature = LECFeature(fragment_id, tuple(crossing), lec_sign)
    feature.dictionary = dictionary
    return feature


def echo_survivors(
    query: QueryGraph, features_by_site: Mapping[int, Sequence[LECFeature]]
) -> Dict[int, Set[LECFeature]]:
    """Per site, the set of its features that survive Algorithm 2 (the old echo)."""
    outcome = LECFeaturePruner(query).prune(f for features in features_by_site.values() for f in features)
    return {site: {f for f in features if outcome.survives(f)} for site, features in features_by_site.items()}


def echo_filter(
    classes: Mapping[LECFeature, Sequence[LocalPartialMatch]], surviving: Set[LECFeature]
) -> List[LocalPartialMatch]:
    """The LPMs a site kept from an echoed survivor set: surviving classes' members, in class order."""
    kept: List[LocalPartialMatch] = []
    for feature, members in classes.items():
        if feature in surviving:
            kept.extend(members)
    return kept


def _text_bytes(keys: Iterable[str]) -> int:
    return sum(len(key.encode("utf-8")) for key in keys)


def recount_lpm_message(lpms: Iterable[LocalPartialMatch], shipped_keys: AbstractSet[str] = frozenset()) -> int:
    """A ``local_partial_matches`` message, sized from the decoded terms.

    4 B of list framing; per LPM 8 B of framing and 8 B (slot index + key
    reference) per mapped query vertex and per matched query edge; the UTF-8
    N3 text of every distinct data vertex and predicate once, unless the
    site's ``lec_features`` message already carried it (``shipped_keys``, see
    :func:`feature_keys`).
    """
    size, keys = 4, set()
    for lpm in lpms:
        size += 8 + 8 * (len(lpm.assignment) + len(lpm.edge_assignment))
        keys |= {value.n3() for _, value in lpm.assignment}
        keys |= {triple.predicate.n3() for _, triple in lpm.edge_assignment}
    return size + _text_bytes(keys - shipped_keys)


def feature_keys(features: Iterable[LECFeature]) -> Set[str]:
    """The keys of a ``lec_features`` message's table: its crossing edges' subjects, predicates and objects."""
    keys = set()
    for feature in features:
        for _, triple in feature.crossing_map:
            keys |= {triple.subject.n3(), triple.predicate.n3(), triple.object.n3()}
    return keys


def recount_feature_message(features: Iterable[LECFeature]) -> int:
    """A ``lec_features`` message, sized from the decoded crossing edges.

    4 B of list framing; per feature 12 B of framing and 16 B (edge index +
    three key references) per crossing pair; the UTF-8 N3 text of every
    distinct subject, predicate and object once.
    """
    features = list(features)
    size = 4 + sum(12 + 16 * len(feature.crossing_map) for feature in features)
    return size + _text_bytes(feature_keys(features))


def group_features_by_sign(features: Iterable[LECFeature]) -> Dict[int, List[LECFeature]]:
    """Group LEC features by LECSign.

    Theorem 5: two features with the same LECSign can never be joinable, so
    each group is join-free and the join graph only needs edges *between*
    groups.
    """
    groups: Dict[int, List[LECFeature]] = defaultdict(list)
    for feature in features:
        groups[feature.lec_sign].append(feature)
    return dict(groups)


def lpms_joinable(left: LocalPartialMatch, right: LocalPartialMatch) -> bool:
    """Definition 9 between two (possibly joined) LPMs, on their decoded views.

    ``LocalPartialMatch.can_join`` before LPMs crossed as keys: a shared
    crossing edge mapped to the same query edge, no query edge mapped to two
    data edges, no query vertex to two data vertices, disjoint LECSigns.
    """
    if left.internal_mask & right.internal_mask:
        return False
    if not (left.crossing_assignment & right.crossing_assignment):
        return False
    mine_edges = dict(left.edge_assignment)
    for index, triple in right.edge_assignment:
        if index in mine_edges and mine_edges[index] != triple:
            return False
    mine_vertices = dict(left.assignment)
    for vertex, value in right.assignment:
        if vertex in mine_vertices and mine_vertices[vertex] != value:
            return False
    return True


def pairs_joinable(
    left: Tuple[int, Tuple[Pair, ...]], right: Tuple[int, Tuple[Pair, ...]], query: QueryGraph
) -> bool:
    """Definition 9 between two ``(LECSign, crossing pairs)`` operands, as :mod:`repro.core.joins` tests it.

    Disjoint LECSigns, a shared crossing pair, and one :func:`~repro.core.joins.fill`
    pass over both operands' pairs with no clash.
    """
    (left_sign, left_pairs), (right_sign, right_pairs) = left, right
    ends = edge_ends(query)
    slots = fill([None] * (query.num_edges + query.num_vertices), left_pairs, ends)
    return (
        not left_sign & right_sign
        and not set(left_pairs).isdisjoint(right_pairs)
        and slots is not None
        and fill(slots, right_pairs, ends) is not None
    )


def crossing_features_joinable(left: LECFeature, right: LECFeature, query: QueryGraph) -> bool:
    """Definition 9 between two features of different fragments, on their crossing pairs."""
    return left.fragment_id != right.fragment_id and pairs_joinable(
        (left.lec_sign, left.crossing), (right.lec_sign, right.crossing), query
    )


# ----------------------------------------------------------------------
# Joinability (Definition 9) and feature joins
# ----------------------------------------------------------------------
def _crossing_maps_conflict(
    left: FrozenSet[Tuple[int, Triple]],
    right: FrozenSet[Tuple[int, Triple]],
    query: QueryGraph,
) -> bool:
    """Detect conflicting crossing-edge mappings between two features.

    A conflict arises when the same query edge is mapped to two different
    data edges (condition 3 of Definition 9) or when a shared query *vertex*
    would have to map to two different data vertices — the vertex-level
    consequence of the paper's requirement that joined partial matches agree
    on every common query vertex.
    """
    left_edges = dict(left)
    for index, triple in right:
        if index in left_edges and left_edges[index] != triple:
            return True
    vertex_values: Dict[object, object] = {}
    for index, triple in list(left) + list(right):
        edge = query.edge_at(index)
        for query_vertex, data_vertex in ((edge.subject, triple.subject), (edge.object, triple.object)):
            existing = vertex_values.get(query_vertex)
            if existing is not None and existing != data_vertex:
                return True
            vertex_values[query_vertex] = data_vertex
    return False


def features_joinable(left: LECFeature, right: LECFeature, query: QueryGraph) -> bool:
    """Definition 9: can the LPMs of these two classes join pairwise?"""
    if left.fragment_id == right.fragment_id:
        return False
    if left.lec_sign & right.lec_sign:
        return False
    if not (left.crossing_map & right.crossing_map):
        return False
    return not _crossing_maps_conflict(left.crossing_map, right.crossing_map, query)


@dataclass(frozen=True)
class JoinedLECFeature:
    """A partial join of several LEC features (used by Algorithm 2).

    Tracks which original features were combined so that the pruning stage
    can report exactly which features participate in a complete combination.
    """

    fragment_ids: FrozenSet[int]
    crossing_map: FrozenSet[Tuple[int, Triple]]
    lec_sign: int
    constituents: FrozenSet[LECFeature]

    @classmethod
    def from_feature(cls, feature: LECFeature) -> "JoinedLECFeature":
        return cls(
            fragment_ids=frozenset({feature.fragment_id}),
            crossing_map=feature.crossing_map,
            lec_sign=feature.lec_sign,
            constituents=frozenset({feature}),
        )

    def joinable_with(self, feature: LECFeature, query: QueryGraph) -> bool:
        """Extend Definition 9 to a partial join.

        The new feature must share a crossing edge with the accumulated
        combination, contribute disjoint internally-matched vertices and not
        conflict on any crossing-edge mapping.  Fragment-set disjointness is
        deliberately *not* required: one crossing match may overlap a single
        fragment in several disconnected internal regions, each contributing
        its own feature to the combination (see Theorem 4, whose conditions
        are per-pair joinability plus sign disjointness — not one feature per
        fragment).
        """
        if self.lec_sign & feature.lec_sign:
            return False
        if not (self.crossing_map & feature.crossing_map):
            return False
        return not _crossing_maps_conflict(self.crossing_map, feature.crossing_map, query)

    def join(self, feature: LECFeature) -> "JoinedLECFeature":
        return JoinedLECFeature(
            fragment_ids=self.fragment_ids | {feature.fragment_id},
            crossing_map=self.crossing_map | feature.crossing_map,
            lec_sign=self.lec_sign | feature.lec_sign,
            constituents=self.constituents | {feature},
        )

    def is_complete(self, query: QueryGraph) -> bool:
        """Theorem 4, condition 3: every query vertex is internally matched."""
        return self.lec_sign == (1 << query.num_vertices) - 1


def groups_joinable(
    left: Sequence[LECFeature],
    right: Sequence[LECFeature],
    query: QueryGraph,
) -> bool:
    """Whether *some* pair of features across the two groups is joinable."""
    return any(features_joinable(a, b, query) for a in left for b in right)


def build_join_graph(
    groups: Mapping[int, Sequence[LECFeature]],
    query: QueryGraph,
) -> Dict[int, Set[int]]:
    """The join graph over LECSign groups (vertices = signs, edges = joinable pairs)."""
    signs = list(groups)
    adjacency: Dict[int, Set[int]] = {sign: set() for sign in signs}
    for i, sign_a in enumerate(signs):
        for sign_b in signs[i + 1 :]:
            if groups_joinable(groups[sign_a], groups[sign_b], query):
                adjacency[sign_a].add(sign_b)
                adjacency[sign_b].add(sign_a)
    return adjacency


class LECFeaturePruner:
    """Runs the LEC feature-based pruning algorithm for one query."""

    def __init__(self, query: QueryGraph, max_combination_size: Optional[int] = None) -> None:
        self._query = query
        # A complete match uses at most |V_Q| partial matches (each must
        # contribute at least one internally matched vertex).
        self._max_size = max_combination_size or query.num_vertices
        #: The member set of every complete combination, in emission order
        #: (one set may be emitted once per order the search reaches it in).
        self.emitted: List[FrozenSet[LECFeature]] = []

    def prune(self, features: Iterable[LECFeature]) -> PruningOutcome:
        """Algorithm 2: return the features that can contribute to a match."""
        all_features = list(dict.fromkeys(features))
        outcome = PruningOutcome(total_features=len(all_features))
        if not all_features:
            return outcome
        full_mask = (1 << self._query.num_vertices) - 1

        # Single-feature completeness: a feature whose LECSign already covers
        # the query can stand alone (its LPMs span the whole query inside one
        # fragment through crossing edges).
        for feature in all_features:
            if feature.lec_sign == full_mask:
                outcome.surviving.add(feature)
                outcome.complete_combinations += 1
                self.emitted.append(frozenset({feature}))

        groups = group_features_by_sign(all_features)
        outcome.groups = len(groups)
        join_graph = build_join_graph(groups, self._query)
        remaining_signs = set(groups)

        while remaining_signs:
            sign_min = min(remaining_signs, key=lambda sign: (len(groups[sign]), sign))
            seeds = [JoinedLECFeature.from_feature(feature) for feature in groups[sign_min]]
            self._explore({sign_min}, seeds, groups, join_graph, remaining_signs, outcome)
            remaining_signs.discard(sign_min)
            # Drop groups that no longer neighbour anything still active.
            for sign in list(remaining_signs):
                if not (join_graph.get(sign, set()) & remaining_signs):
                    remaining_signs.discard(sign)
        return outcome

    # ------------------------------------------------------------------
    # DFS over the join graph (function ComLECFJoin of the paper)
    # ------------------------------------------------------------------
    def _explore(
        self,
        used_signs: Set[int],
        partials: Sequence[JoinedLECFeature],
        groups: Mapping[int, Sequence[LECFeature]],
        join_graph: Mapping[int, Set[int]],
        active_signs: Set[int],
        outcome: PruningOutcome,
    ) -> None:
        if not partials or len(used_signs) >= self._max_size:
            return
        neighbour_signs: Set[int] = set()
        for sign in used_signs:
            neighbour_signs |= join_graph.get(sign, set())
        neighbour_signs &= active_signs
        neighbour_signs -= used_signs
        for sign in sorted(neighbour_signs):
            extended: List[JoinedLECFeature] = []
            for partial in partials:
                for feature in groups[sign]:
                    outcome.join_attempts += 1
                    if not partial.joinable_with(feature, self._query):
                        continue
                    joined = partial.join(feature)
                    if joined.is_complete(self._query):
                        outcome.complete_combinations += 1
                        outcome.surviving.update(joined.constituents)
                        self.emitted.append(joined.constituents)
                    else:
                        extended.append(joined)
            if extended:
                self._explore(used_signs | {sign}, extended, groups, join_graph, active_signs, outcome)


class BaseAssembler:
    """Shared DFS machinery of both assembly strategies."""

    def __init__(self, query: QueryGraph) -> None:
        self._query = query
        self._full_mask = (1 << query.num_vertices) - 1
        self._max_depth = query.num_vertices

    def assemble(self, lpms: Sequence[LocalPartialMatch]) -> AssemblyOutcome:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _emit_if_complete(self, candidate: LocalPartialMatch, outcome: AssemblyOutcome, seen: Set[FrozenSet]) -> bool:
        if candidate.internal_mask != self._full_mask:
            return False
        key = candidate.assignment
        if key not in seen:
            seen.add(key)
            outcome.matches.append(candidate)
        return True


class LECAssembler(BaseAssembler):
    """Algorithm 3: LEC feature-based assembly."""

    def assemble(self, lpms: Sequence[LocalPartialMatch]) -> AssemblyOutcome:
        outcome = AssemblyOutcome()
        seen_matches: Set[FrozenSet] = set()
        for lpm in lpms:
            self._emit_if_complete(lpm, outcome, seen_matches)

        groups = self._group_by_sign(lpms)
        outcome.groups = len(groups)
        if not groups:
            return outcome
        features_per_group = {
            sign: {lec_feature_of(lpm) for lpm in members} for sign, members in groups.items()
        }
        join_graph = self._build_group_join_graph(features_per_group)

        remaining = set(groups)
        while remaining:
            sign_min = min(remaining, key=lambda sign: (len(groups[sign]), sign))
            self._explore({sign_min}, list(groups[sign_min]), groups, join_graph, remaining, outcome, seen_matches)
            remaining.discard(sign_min)
            for sign in list(remaining):
                if not (join_graph.get(sign, set()) & remaining):
                    remaining.discard(sign)
        return outcome

    # ------------------------------------------------------------------
    # Grouping (Definition 11) and the group join graph
    # ------------------------------------------------------------------
    @staticmethod
    def _group_by_sign(lpms: Sequence[LocalPartialMatch]) -> Dict[int, List[LocalPartialMatch]]:
        groups: Dict[int, List[LocalPartialMatch]] = defaultdict(list)
        for lpm in lpms:
            groups[lpm.internal_mask].append(lpm)
        return dict(groups)

    def _build_group_join_graph(
        self, features_per_group: Mapping[int, Set[LECFeature]]
    ) -> Dict[int, Set[int]]:
        signs = list(features_per_group)
        adjacency: Dict[int, Set[int]] = {sign: set() for sign in signs}
        for i, sign_a in enumerate(signs):
            for sign_b in signs[i + 1 :]:
                if any(
                    features_joinable(fa, fb, self._query)
                    for fa in features_per_group[sign_a]
                    for fb in features_per_group[sign_b]
                ):
                    adjacency[sign_a].add(sign_b)
                    adjacency[sign_b].add(sign_a)
        return adjacency

    # ------------------------------------------------------------------
    # DFS over the group join graph (function ComParJoin of the paper)
    # ------------------------------------------------------------------
    def _explore(
        self,
        used_signs: Set[int],
        partials: Sequence[LocalPartialMatch],
        groups: Mapping[int, Sequence[LocalPartialMatch]],
        join_graph: Mapping[int, Set[int]],
        active_signs: Set[int],
        outcome: AssemblyOutcome,
        seen_matches: Set[FrozenSet],
    ) -> None:
        if not partials or len(used_signs) >= self._max_depth:
            return
        neighbour_signs: Set[int] = set()
        for sign in used_signs:
            neighbour_signs |= join_graph.get(sign, set())
        neighbour_signs &= active_signs
        neighbour_signs -= used_signs
        for sign in sorted(neighbour_signs):
            extended: List[LocalPartialMatch] = []
            for partial in partials:
                for other in groups[sign]:
                    outcome.join_attempts += 1
                    if not lpms_joinable(partial, other):
                        continue
                    outcome.successful_joins += 1
                    joined = partial.join(other)
                    if not self._emit_if_complete(joined, outcome, seen_matches):
                        extended.append(joined)
            if extended:
                self._explore(used_signs | {sign}, extended, groups, join_graph, active_signs, outcome, seen_matches)
