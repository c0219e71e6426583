"""Stage 1 as it ran before it moved onto ids: the oracle of the id path.

Sites used to decode their candidate pools into ``Node`` sets, intersect them
with the fragment's internal vertices and hash every decoded ``Node`` into its
variable's bit vector.  ``reference_site_vectors(reference_internal_candidates(
site, query_graph))`` is what ``build_site_vectors(site.internal_candidates(
query_graph))`` returned then; the id path must reproduce it bit for bit.
"""

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
    candidates = compute_candidates(site.graph, query_graph, site.store.signatures)
    return {vertex: found & site.fragment.internal_vertices for vertex, found in candidates.items()}


def reference_site_vectors(internal_candidates, width=DEFAULT_BIT_VECTOR_BITS):
    """The old ``build_site_vectors``: one vector per variable, from decoded terms."""
    return {
        vertex: vector_of(found, width)
        for vertex, found in internal_candidates.items()
        if isinstance(vertex, Variable)
    }
