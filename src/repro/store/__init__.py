"""Local triple store substrate: encoding, matcher, store facade."""

from .encoding import EncodedGraph, TermDictionary
from .kernel import KERNEL_PYTHON, resolve_kernel
from .matcher import LocalMatcher, evaluate_centralized, finalize_matches
from .triple_store import TripleStore

__all__ = [
    "EncodedGraph",
    "KERNEL_PYTHON",
    "LocalMatcher",
    "TermDictionary",
    "TripleStore",
    "evaluate_centralized",
    "finalize_matches",
    "resolve_kernel",
]
