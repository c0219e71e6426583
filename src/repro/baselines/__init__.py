"""Simulated comparison systems for the online-performance experiment (Fig. 12)."""

from .base import DistributedEngine
from .cloud import CliqueSquareEngine, S2RDFEngine, S2XEngine
from .decomposition import decompose_into_stars, hash_join, join_all
from .dream import DreamEngine

#: The comparison systems of Fig. 12 keyed by their report name.
BASELINE_ENGINES = {
    DreamEngine.name: DreamEngine,
    S2RDFEngine.name: S2RDFEngine,
    CliqueSquareEngine.name: CliqueSquareEngine,
    S2XEngine.name: S2XEngine,
}


def make_baseline(name: str, cluster) -> DistributedEngine:
    """Instantiate a comparison system by name (``DREAM``, ``S2RDF``, ``CliqueSquare``, ``S2X``)."""
    if name not in BASELINE_ENGINES:
        raise KeyError(f"unknown baseline {name!r}; available: {sorted(BASELINE_ENGINES)}")
    return BASELINE_ENGINES[name](cluster)


__all__ = [
    "BASELINE_ENGINES",
    "CliqueSquareEngine",
    "DistributedEngine",
    "DreamEngine",
    "S2RDFEngine",
    "S2XEngine",
    "decompose_into_stars",
    "hash_join",
    "join_all",
    "make_baseline",
]
