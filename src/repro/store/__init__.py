"""Local triple store substrate: encoding, candidates, matcher, store facade."""

from .candidates import compute_candidates, edge_supported
from .encoding import EncodedGraph, TermDictionary, encoded_view
from .kernel import KERNEL_PYTHON, resolve_kernel
from .matcher import LocalMatcher, evaluate_centralized, finalize_matches
from .triple_store import TripleStore

__all__ = [
    "EncodedGraph",
    "KERNEL_PYTHON",
    "LocalMatcher",
    "TermDictionary",
    "TripleStore",
    "compute_candidates",
    "edge_supported",
    "encoded_view",
    "evaluate_centralized",
    "finalize_matches",
    "resolve_kernel",
]
