"""Local triple store substrate: encoding, signatures, candidates, matcher, store facade."""

from .candidates import compute_candidates, edge_supported
from .encoding import EncodedGraph, TermDictionary, encoded_view
from .kernel import KERNEL_PYTHON, resolve_kernel
from .matcher import LocalMatcher, evaluate_centralized, finalize_matches
from .signatures import DEFAULT_SIGNATURE_BITS, SignatureIndex, VertexSignature
from .triple_store import TripleStore

__all__ = [
    "DEFAULT_SIGNATURE_BITS",
    "EncodedGraph",
    "KERNEL_PYTHON",
    "LocalMatcher",
    "SignatureIndex",
    "TermDictionary",
    "TripleStore",
    "VertexSignature",
    "compute_candidates",
    "edge_supported",
    "encoded_view",
    "evaluate_centralized",
    "finalize_matches",
    "resolve_kernel",
]
