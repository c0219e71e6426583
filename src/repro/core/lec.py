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
and compare strings, never term objects.  On the wire a site's features share
one term table: each key's text is paid once per message, by the first
feature that uses it, and every pair is four fixed-width references.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, NamedTuple, Set, Tuple

from ..rdf.ntriples import parse_term
from ..rdf.triples import Triple
from .partial_match import REFERENCE_BYTES, LocalPartialMatch, LPMList, PairKey, key_bytes

#: Fragment-id (8 B) and LECSign (4 B) framing of one feature.
FEATURE_FRAMING = 12
#: One crossing pair: its query edge index and three key references.
PAIR_BYTES = 4 * REFERENCE_BYTES


class _FeatureKey(NamedTuple):
    fragment_id: int
    crossing: Tuple[PairKey, ...]
    lec_sign: int


class LECFeature(_FeatureKey):
    """The compact summary of one local partial match equivalence class.

    ``crossing`` is the function ``g`` of Definition 8: one
    ``(query edge index, s, p, o)`` key per crossing edge, in ascending edge
    index (so equal functions are equal tuples); ``lec_sign`` is the LECSign
    bitmask over query-vertex indices.  The feature *is* that key tuple, so
    equality and hashing cover it alone at C speed.  ``size``, outside the
    tuple, is what the feature adds to its ``lec_features`` message
    (:meth:`shipment_size`), set by Algorithm 1's scan.
    """

    #: Unset (a feature built on its own): charged as its message's only feature.
    size = -1

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
        """Bytes this feature adds to its ``lec_features`` message.

        The message is a term table plus references: 12 B of fragment-id and
        LECSign framing, 16 B per crossing pair (its query edge index and three
        key references), and the UTF-8 text of each key this feature is the
        first in message order to use — Algorithm 1's scan charges every key
        once per message.  So the paper's O(|E_Q|) for ``g`` holds per
        feature, and a key shared by features is paid for once.
        """
        return self.size if self.size >= 0 else _charge(self.crossing, set())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        edges = ", ".join(f"#{pair[0]}" for pair in self.crossing)
        return f"<LECFeature F{self.fragment_id} edges=[{edges}] sign={bin(self.lec_sign)}>"


def _charge(crossing: Tuple[PairKey, ...], seen: Set[str]) -> int:
    """A feature's bytes in its message, given the keys ``seen`` earlier in it (updated).

    Unrolled over the three keys of a pair: this runs once per feature on
    the query path, and a loop over a ``(s, p, o)`` tuple costs half again.
    """
    size = FEATURE_FRAMING + PAIR_BYTES * len(crossing)
    for _, subject, predicate, obj in crossing:
        if subject not in seen:
            seen.add(subject)
            size += key_bytes(subject)
        if predicate not in seen:
            seen.add(predicate)
            size += key_bytes(predicate)
        if obj not in seen:
            seen.add(obj)
            size += key_bytes(obj)
    return size


def lec_feature_of(lpm: LocalPartialMatch) -> LECFeature:
    """The LEC feature of a single local partial match (Definition 8)."""
    return LECFeature(lpm.fragment_id, lpm.crossing, lpm.internal_mask)


class LECClasses(dict):
    """Algorithm 1's output: each LEC feature, in message order, to its class.

    ``list(classes)`` is the ``lec_features`` message and ``key_table`` the
    keys its term table holds.  Pickles as the LPMs it groups — one
    :class:`~repro.core.partial_match.LPMList`, in class order — and groups
    them again on load, which rebuilds the same classes in the same order
    with the same charges and table.
    """

    __slots__ = ("key_table",)

    def __reduce__(self):
        members = LPMList([lpm for lpms in self.values() for lpm in lpms])
        return (compute_lec_features, (members,))


def compute_lec_features(lpms: Iterable[LocalPartialMatch]) -> LECClasses:
    """Algorithm 1: one linear scan over the local partial matches.

    Returns the mapping from each distinct LEC feature to the equivalence
    class (the list of LPMs it summarises), features in order of first
    appearance.  The key list alone is what gets shipped to the coordinator;
    each feature is then charged its share of that message, in that order,
    and the keys the message's table holds are kept as ``key_table``.
    """
    classes = LECClasses()
    for lpm in lpms:
        feature = lec_feature_of(lpm)
        members = classes.get(feature)
        if members is None:
            members = classes[feature] = []
        members.append(lpm)
    seen: Set[str] = set()
    for feature in classes:
        feature.size = _charge(feature.crossing, seen)
    classes.key_table = seen
    return classes
