"""Stage 1 as it ran before it moved onto ids: the oracle of the id path.

Sites used to decode their candidate pools into ``Node`` sets, intersect them
with the fragment's internal vertices and hash every decoded ``Node`` into its
variable's bit vector.  ``reference_site_vectors(reference_internal_candidates(
site, query_graph))`` is what ``build_site_vectors(site.internal_candidates(
query_graph))`` returned then; the id path must reproduce it bit for bit.

:func:`recount_vector` sizes a vector's wire form from the positions the
decoded terms hash to (:func:`hashed_positions`), independently of
``CandidateBitVector.shipment_size``.
"""

import hashlib

from repro.core.candidate_exchange import DEFAULT_BIT_VECTOR_BITS, CandidateBitVector
from repro.rdf import Variable
from repro.store import compute_candidates


def vector_of(terms, width=DEFAULT_BIT_VECTOR_BITS) -> CandidateBitVector:
    """The bit vector of ``terms``, each hashed from its ``Node``."""
    vector = CandidateBitVector(width)
    for term in terms:
        vector.add(term)
    return vector


def reference_internal_candidates(site, query_graph):
    """Per query vertex, the site's decoded internal candidates (a ``Node`` set)."""
    candidates = compute_candidates(site.graph, query_graph)
    return {vertex: found & site.fragment.internal_vertices for vertex, found in candidates.items()}


def reference_site_vectors(internal_candidates, width=DEFAULT_BIT_VECTOR_BITS):
    """The old ``build_site_vectors``: one vector per variable, from decoded terms."""
    return {
        vertex: vector_of(found, width)
        for vertex, found in internal_candidates.items()
        if isinstance(vertex, Variable)
    }


def hashed_positions(terms, width=DEFAULT_BIT_VECTOR_BITS):
    """The bit positions of ``terms``: the first 8 bytes of each N3 text's SHA-1, big-endian, mod ``width``."""
    return {int.from_bytes(hashlib.sha1(term.n3().encode("utf-8")).digest()[:8], "big") % width for term in terms}


def recount_vector(positions, width=DEFAULT_BIT_VECTOR_BITS):
    """One vector on the wire: 4 B of framing, then its bitmap or its positions, whichever is smaller.

    A position takes the fewest whole bytes that hold ``width - 1`` (at least one).
    """
    bitmap = -(-width // 8)
    position = (len(f"{width - 1:x}") + 1) // 2
    return 4 + min(bitmap, position * len(positions))
