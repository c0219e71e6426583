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

This module implements the feature itself and Algorithm 1 (computing
features from a stream of local partial matches); Definition 9 and Theorem 5
are applied by the joins in :mod:`repro.core.joins`.  A feature is its key:
``g`` holds N3-keyed crossing pairs, so grouping, shipping and pruning hash
and compare strings, never term objects.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Set, Tuple

from ..rdf.ntriples import parse_term
from ..rdf.triples import Triple
from .partial_match import LocalPartialMatch, PairKey


class LECFeature(NamedTuple):
    """The compact summary of one local partial match equivalence class.

    ``crossing`` is the function ``g`` of Definition 8: one
    ``(query edge index, s, p, o)`` key per crossing edge, in ascending edge
    index (so equal functions are equal tuples); ``lec_sign`` is the LECSign
    bitmask over query-vertex indices.
    """

    fragment_id: int
    crossing: Tuple[PairKey, ...]
    lec_sign: int

    # ------------------------------------------------------------------
    # Decoded views (tests and oracles)
    # ------------------------------------------------------------------
    @property
    def crossing_map(self) -> FrozenSet[Tuple[int, Triple]]:
        """``g`` as (query edge index, data crossing edge) pairs, parsed back from the keys."""
        return frozenset(
            (index, Triple(parse_term(subject), parse_term(predicate), parse_term(obj)))
            for index, subject, predicate, obj in self.crossing
        )

    def crossing_edges(self) -> Set[Triple]:
        return {triple for _, triple in self.crossing_map}

    def query_edges(self) -> Set[int]:
        return {pair[0] for pair in self.crossing}

    def sign_bits(self, num_vertices: int) -> str:
        """LECSign rendered as a bitstring (mostly for logs and tests)."""
        return "".join("1" if self.lec_sign >> i & 1 else "0" for i in range(num_vertices))

    def shipment_size(self) -> int:
        """Approximate serialized size: fragment id + g + LECSign.

        Matches the paper's cost analysis: O(|E_Q|) for ``g`` plus O(|V_Q|)
        for the bitstring plus a constant for the fragment identifier.
        """
        size = 8 + 4  # fragment id + bitmask
        for _, subject, predicate, obj in self.crossing:
            size += 4 + len(subject) + len(predicate) + len(obj)
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        edges = ", ".join(f"#{pair[0]}" for pair in self.crossing)
        return f"<LECFeature F{self.fragment_id} edges=[{edges}] sign={bin(self.lec_sign)}>"


def lec_feature_of(lpm: LocalPartialMatch) -> LECFeature:
    """The LEC feature of a single local partial match (Definition 8)."""
    return LECFeature(lpm.fragment_id, lpm.crossing, lpm.internal_mask)


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
