"""LEC feature-based pruning (Section IV-C, Algorithm 2).

The coordinator receives every site's LEC features and enumerates, once
each, the combinations whose LECSigns partition the query vertices and whose
members join pairwise (the join of :mod:`repro.core.joins`, which reads each
feature as its ``(lec_sign, crossing)`` as received; Theorem 5 is its sign
test).  Every feature that appears in no such complete combination is
pruned, and with it every local partial match of its equivalence class.

The implementation tracks constituents at the level of individual features
(slightly finer than the group-level bookkeeping in the paper's pseudo-code),
which only prunes *more* irrelevant partial matches and never a relevant
one: a feature is kept if and only if it participates in at least one
complete combination, which is exactly the condition of Theorem 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from ..sparql.query_graph import QueryGraph
from .joins import SignGroups, one_space
from .lec import LECFeature


@dataclass
class PruningOutcome:
    """Result of running Algorithm 2 at the coordinator."""

    surviving: Set[LECFeature] = field(default_factory=set)
    total_features: int = 0
    #: Distinct LECSigns among the features.
    groups: int = 0
    #: Features the join index listed and the Definition-9 test ran on.
    join_attempts: int = 0
    complete_combinations: int = 0
    #: ``(crossing pair, end) -> feature`` postings of the per-query join index.
    index_size: int = 0

    @property
    def pruned_count(self) -> int:
        return self.total_features - len(self.surviving)

    def survives(self, feature: LECFeature) -> bool:
        return feature in self.surviving


class LECFeaturePruner:
    """Runs the LEC feature-based pruning algorithm for one query."""

    def __init__(self, query: QueryGraph) -> None:
        self._query = query

    def prune(self, features: Iterable[LECFeature]) -> PruningOutcome:
        """Algorithm 2: return the features that can contribute to a match.

        The features are indexed under their crossing pairs per call (see
        :mod:`repro.core.joins`); a feature whose LECSign already covers the
        query stands alone — its LPMs span the whole query inside one
        fragment through crossing edges.  Raises ``ValueError`` for features
        of two dictionaries.
        """
        all_features = list(dict.fromkeys(features))
        one_space(feature.dictionary for feature in all_features)
        outcome = PruningOutcome(total_features=len(all_features))
        groups = SignGroups(self._query, [(feature.lec_sign, feature.crossing) for feature in all_features])

        def emit(members: Tuple[int, ...]) -> None:
            outcome.complete_combinations += 1
            outcome.surviving.update(all_features[number] for number in members)

        groups.join(emit)
        outcome.groups = groups.groups
        outcome.join_attempts = groups.join_attempts
        outcome.index_size = groups.index_size
        return outcome


def prune_features(
    query: QueryGraph,
    features_by_site: Mapping[int, Sequence[LECFeature]],
) -> Tuple[PruningOutcome, Dict[int, List[int]]]:
    """Run the pruner over all sites' features; return per-site survivor positions.

    A site's survivors go back as the ascending positions of its surviving
    features in the sequence it sent — its own ``lec_features`` message —
    so the coordinator never echoes a feature to the site that sent it.
    """
    pruner = LECFeaturePruner(query)
    every_feature = [feature for features in features_by_site.values() for feature in features]
    outcome = pruner.prune(every_feature)
    per_site: Dict[int, List[int]] = {}
    for site_id, features in features_by_site.items():
        per_site[site_id] = [
            position for position, feature in enumerate(features) if outcome.survives(feature)
        ]
    return outcome, per_site
