"""LEC features: compressing local partial matches (Section IV).

Local partial matches that come from the same fragment, contain the same
crossing edges, and map those crossing edges to the same query edges are
structurally interchangeable (Theorem 1): whatever one of them can join
with, all of them can (Theorem 2).  They form a *local partial match
equivalence class* (LEC), and the whole class is summarised by a *LEC
feature* (Definition 8):

* the fragment identifier,
* the mapping ``g`` from its crossing edges to query edges, and
* ``LECSign`` — a bitstring over the query vertices whose ``i``-th bit is set
  when query vertex ``v_i`` maps to an internal vertex of the fragment.

Only LEC features travel over the network during the pruning stage, which is
what makes the optimization *partition bounded*: the number of features
depends on the query size and the crossing edges, never on the data size.

This module implements the feature itself, Algorithm 1 (computing features
from a stream of local partial matches), the joinability test of Definition
9, and the LECSign-based grouping of Theorem 5; the joins over features live
in :mod:`repro.core.joins`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..rdf.triples import Triple
from ..sparql.query_graph import QueryGraph
from .joins import JoinCompiler, joinable
from .partial_match import LocalPartialMatch


@dataclass(frozen=True)
class LECFeature:
    """The compact summary of one local partial match equivalence class.

    ``crossing_map`` is the function ``g`` of Definition 8 as a frozenset of
    (query edge index, data crossing edge) pairs; ``lec_sign`` is the
    LECSign bitmask over query-vertex indices.
    """

    fragment_id: int
    crossing_map: FrozenSet[Tuple[int, Triple]]
    lec_sign: int

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def crossing_edges(self) -> Set[Triple]:
        return {triple for _, triple in self.crossing_map}

    def query_edges(self) -> Set[int]:
        return {index for index, _ in self.crossing_map}

    def sign_bits(self, num_vertices: int) -> str:
        """LECSign rendered as a bitstring (mostly for logs and tests)."""
        return "".join("1" if self.lec_sign >> i & 1 else "0" for i in range(num_vertices))

    def shipment_size(self) -> int:
        """Approximate serialized size: fragment id + g + LECSign.

        Matches the paper's cost analysis: O(|E_Q|) for ``g`` plus O(|V_Q|)
        for the bitstring plus a constant for the fragment identifier.
        """
        size = 8 + 4  # fragment id + bitmask
        for _, triple in self.crossing_map:
            size += 4 + len(triple.subject.n3()) + len(triple.predicate.n3()) + len(triple.object.n3())
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        edges = ", ".join(f"#{index}" for index, _ in sorted(self.crossing_map, key=lambda p: p[0]))
        return f"<LECFeature F{self.fragment_id} edges=[{edges}] sign={bin(self.lec_sign)}>"


def lec_feature_of(lpm: LocalPartialMatch) -> LECFeature:
    """The LEC feature of a single local partial match (Definition 8)."""
    return LECFeature(
        fragment_id=lpm.fragment_id,
        crossing_map=lpm.crossing_assignment,
        lec_sign=lpm.internal_mask,
    )


def compute_lec_features(lpms: Iterable[LocalPartialMatch]) -> Dict[LECFeature, List[LocalPartialMatch]]:
    """Algorithm 1: one linear scan over the local partial matches.

    Returns the mapping from each distinct LEC feature to the equivalence
    class (the list of LPMs it summarises); the key set alone is what gets
    shipped to the coordinator.
    """
    classes: Dict[LECFeature, List[LocalPartialMatch]] = defaultdict(list)
    for lpm in lpms:
        classes[lec_feature_of(lpm)].append(lpm)
    return dict(classes)


# ----------------------------------------------------------------------
# Joinability (Definition 9)
# ----------------------------------------------------------------------
def features_joinable(left: LECFeature, right: LECFeature, query: QueryGraph) -> bool:
    """Definition 9: can the LPMs of these two classes join pairwise?

    The features must come from different fragments, contribute disjoint
    internally-matched vertices, share a crossing edge mapped to the same
    query edge, and map no query edge to two data edges — nor, as the
    vertex-level consequence, a query vertex to two data vertices.  Evaluated
    on the compiled form the coordinator's joins use (:mod:`repro.core.joins`).
    """
    compiler = JoinCompiler(query)
    return joinable(compiler.feature(left), compiler.feature(right), query)


# ----------------------------------------------------------------------
# LECSign-based grouping (Theorem 5 / Definition 10)
# ----------------------------------------------------------------------
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
