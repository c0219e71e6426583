"""Placement of vertices that updates bring: the stable fallback home.

The paper's distributed RDF graph replicates every crossing edge in both
incident fragments, so a vertex's *home* fragment stores **all** of its
incident edges and a stream of triple additions and removals can be folded
into the fragments without re-partitioning.  Homes are sticky, and a
brand-new vertex joins the home of its first triple's other endpoint
(:meth:`~repro.distributed.Cluster.apply_ops`); when neither endpoint has a
home yet, :func:`stable_fragment_of` decides.  Replaying the same op sequence
anywhere (coordinator, store replay) therefore lands every triple in the same
fragment.
"""

from __future__ import annotations

from ..rdf.terms import Node


def stable_fragment_of(vertex: Node, num_fragments: int) -> int:
    """Deterministic fallback fragment for a vertex with no assigned endpoint.

    FNV-1a over the vertex's N3 text: stable across processes and platforms
    (``hash()`` is per-process randomized and would break replay parity).
    """
    value = 0xCBF29CE484222325
    for char in vertex.n3().encode("utf-8"):
        value ^= char
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value % num_fragments
