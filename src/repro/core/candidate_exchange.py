"""Assembling variables' internal candidates (Section VI, Algorithm 4).

Before partial evaluation, every site computes the *internal* candidates of
each query variable (vertices of its own fragment that locally satisfy the
variable's incident triple patterns), compresses each candidate set into a
fixed-length bit vector, and ships the vectors to the coordinator.  The
coordinator ORs the vectors per variable — a candidate that can appear in a
complete match must be an internal candidate of the site that owns it, so
the union covers every useful candidate — and broadcasts the result.

During partial evaluation each site then refuses to bind an *extended*
vertex to a variable when the global bit vector says that vertex is an
internal candidate nowhere: such a binding could never survive the assembly.
An all-zero union vector proves the answer empty: that variable has no
internal candidate at any site, so no site enumerates anything
(:meth:`GlobalCandidateFilter.proves_empty`).

The paper fixes the vector length so that this stage's communication cost
does not depend on the data.  On the wire a vector travels as the smaller of
two forms, the container choice of Roaring bitmaps: the dense bitmap, or the
ascending positions of its set bits at a fixed width each.  A vector that
holds little ships little, and no vector ever costs more than its bitmap:
``ceil(width / 8) + 4`` bytes stays the data-independent bound
(``docs/performance.md``, "Candidate vectors ship as what they hold").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from ..rdf.terms import Node, Variable
from ..store.encoding import key_bit
from ..store.fragment_index import CandidateIds

#: Default bit-vector width (bits).  Fixed length per the paper; wide enough
#: to keep the false-positive rate low on the bundled datasets.
DEFAULT_BIT_VECTOR_BITS = 4096
#: Framing of one vector on the wire: its width and form.
VECTOR_FRAMING = 4


@dataclass
class CandidateBitVector:
    """A fixed-length bit vector summarising one variable's candidate set."""

    width: int = DEFAULT_BIT_VECTOR_BITS
    bits: int = 0

    def add(self, candidate: Node) -> None:
        self.bits |= 1 << key_bit(candidate.n3(), self.width)

    def might_contain(self, candidate: Node) -> bool:
        """Membership test: no false negatives, possible false positives."""
        return bool(self.bits >> key_bit(candidate.n3(), self.width) & 1)

    def union(self, other: "CandidateBitVector") -> "CandidateBitVector":
        if self.width != other.width:
            raise ValueError("cannot union bit vectors of different widths")
        return CandidateBitVector(self.width, self.bits | other.bits)

    def popcount(self) -> int:
        return self.bits.bit_count()

    def shipment_size(self) -> int:
        """Bytes on the wire: 4 B of framing plus the smaller of the two forms.

        The dense form is the bitmap, ``ceil(width / 8)`` bytes; the sparse
        form is one position per set bit, in the fewest whole bytes that hold
        ``width - 1`` (2 B at 4,096 bits).  So the size never exceeds
        ``ceil(width / 8) + 4``, whatever the data.
        """
        return VECTOR_FRAMING + min(_dense_bytes(self.width), _position_bytes(self.width) * self.popcount())

    def wire_payload(self) -> bytes:
        """The form :meth:`shipment_size` charges: ascending positions if smaller, else the bitmap."""
        width, bits = self.width, self.bits
        if self.shipment_size() == VECTOR_FRAMING + _dense_bytes(width):
            return bits.to_bytes(_dense_bytes(width), "little")
        size = _position_bytes(width)
        positions = []
        while bits:
            low = bits & -bits
            positions.append((low.bit_length() - 1).to_bytes(size, "little"))
            bits ^= low
        return b"".join(positions)

    def __reduce__(self):
        """Pickle the wire form, so a pickled vector is what the bus charges."""
        return (_vector_from_wire, (self.width, self.wire_payload()))


def _position_bytes(width: int) -> int:
    """Bytes of one set-bit position in the sparse form: enough to hold ``width - 1``."""
    return max(1, ((width - 1).bit_length() + 7) // 8)


def _dense_bytes(width: int) -> int:
    return (width + 7) // 8


def _vector_from_wire(width: int, payload: bytes) -> CandidateBitVector:
    """Unpickle a :class:`CandidateBitVector`: a payload shorter than the bitmap is positions."""
    if len(payload) >= _dense_bytes(width):
        return CandidateBitVector(width, int.from_bytes(payload, "little"))
    size = _position_bytes(width)
    bits = 0
    for start in range(0, len(payload), size):
        bits |= 1 << int.from_bytes(payload[start : start + size], "little")
    return CandidateBitVector(width, bits)


@dataclass
class GlobalCandidateFilter:
    """The coordinator's per-variable union bit vectors, as used by the sites."""

    vectors: Dict[Variable, CandidateBitVector] = field(default_factory=dict)

    def shipment_size(self) -> int:
        return sum(vector.shipment_size() for vector in self.vectors.values()) + 4

    def proves_empty(self) -> bool:
        """Whether some variable's union vector is all zero, so it binds in no complete match."""
        return any(not vector.bits for vector in self.vectors.values())

    def __len__(self) -> int:
        return len(self.vectors)


def build_site_vectors(
    internal_candidates: CandidateIds,
    width: int = DEFAULT_BIT_VECTOR_BITS,
) -> Dict[Variable, CandidateBitVector]:
    """One site's step of Algorithm 4: compress its internal candidate sets.

    Only variables get vectors; constant query vertices need no filtering.
    An id sets the bit its dictionary's per-id table holds for ``width``.
    """
    positions = internal_candidates.encoded.dictionary.bit_positions(width)
    vectors: Dict[Variable, CandidateBitVector] = {}
    for vertex, ids in internal_candidates.items():
        if isinstance(vertex, Variable):
            bits = sum(1 << position for position in set(map(positions.__getitem__, ids)))
            vectors[vertex] = CandidateBitVector(width, bits)
    return vectors


def union_site_vectors(
    per_site_vectors: Iterable[Mapping[Variable, CandidateBitVector]],
    width: int = DEFAULT_BIT_VECTOR_BITS,
) -> GlobalCandidateFilter:
    """The coordinator's step of Algorithm 4: OR the vectors per variable.

    The merged vectors keep the width the sites built theirs with (``width``).
    """
    merged: Dict[Variable, CandidateBitVector] = {}
    for site_vectors in per_site_vectors:
        for variable, vector in site_vectors.items():
            if variable in merged:
                merged[variable] = merged[variable].union(vector)
            else:
                merged[variable] = CandidateBitVector(vector.width, vector.bits)
    return GlobalCandidateFilter(merged)
