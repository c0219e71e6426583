"""Incremental maintenance of a Definition 1 partitioning under mutation.

The paper's distributed RDF graph replicates every crossing edge in both
incident fragments, which has a crucial consequence: a vertex's *home*
fragment stores **all** of its incident edges (internal and crossing alike).
Global facts about a vertex — "does it still have any edge?" — are therefore
decidable locally at its home site, and a stream of triple additions and
removals can be folded into the fragments without re-partitioning.

:class:`DeltaRouter` turns one graph mutation into the per-fragment
:class:`DeltaEffect` list that keeps Definition 1 intact:

* vertices keep a *sticky* fragment assignment — once a vertex has been
  routed somewhere it stays there for life, so replaying the same op
  sequence anywhere (coordinator, store replay) lands every triple in the
  same fragment;
* a brand-new vertex joins the fragment of an already-assigned endpoint of
  its first triple (subject's home wins when both endpoints are new and the
  subject was assigned first), falling back to a stable FNV-1a hash of its
  N3 text — never Python's randomized ``hash()``;
* removals prune internal vertices that lost their last incident edge and
  extended vertices that lost their last crossing edge, so
  :meth:`PartitionedGraph.validate` keeps holding after any op sequence.

The same router code runs everywhere a delta is applied; determinism of the
fragment contents falls out of that, not out of coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..rdf.terms import Node
from ..rdf.triples import Triple
from .fragment import Fragment


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


@dataclass(frozen=True)
class DeltaEffect:
    """One fragment-local consequence of a graph mutation."""

    op: str  #: ``"add"`` or ``"remove"``
    fragment_id: int
    triple: Triple
    crossing: bool
    #: For crossing edges: the endpoint that is *not* internal to the target
    #: fragment (``None`` for internal edges).
    extended: Optional[Node] = None

    @property
    def internal_endpoints(self) -> Tuple[Node, ...]:
        """The endpoints internal to the target fragment."""
        if not self.crossing:
            if self.triple.subject == self.triple.object:
                return (self.triple.subject,)
            return (self.triple.subject, self.triple.object)
        if self.extended == self.triple.object:
            return (self.triple.subject,)
        return (self.triple.object,)


class DeltaRouter:
    """Routes graph ops to fragments against a (live) vertex assignment.

    The router mutates ``assignment`` in place as it assigns new vertices,
    so a :class:`~repro.partition.PartitionedGraph` handing over its own
    assignment dict stays authoritative throughout.
    """

    def __init__(self, assignment: Dict[Node, int], num_fragments: int) -> None:
        self._assignment = assignment
        self._num_fragments = num_fragments

    def _assign(self, vertex: Node, partner: Node) -> int:
        fragment_id = self._assignment.get(vertex)
        if fragment_id is None:
            partner_home = self._assignment.get(partner)
            if partner_home is not None:
                fragment_id = partner_home
            else:
                fragment_id = stable_fragment_of(vertex, self._num_fragments)
            self._assignment[vertex] = fragment_id
        return fragment_id

    def route(self, op: str, triple: Triple) -> List[DeltaEffect]:
        """The per-fragment effects of applying ``("+"|"-", triple)``."""
        subject, obj = triple.subject, triple.object
        if op == "+":
            home_s = self._assign(subject, obj)
            home_o = self._assign(obj, subject)
            kind = "add"
        else:
            # A removed triple was present, so both endpoints are assigned.
            home_s = self._assignment[subject]
            home_o = self._assignment[obj]
            kind = "remove"
        if home_s == home_o:
            return [DeltaEffect(kind, home_s, triple, crossing=False)]
        return [
            DeltaEffect(kind, home_s, triple, crossing=True, extended=obj),
            DeltaEffect(kind, home_o, triple, crossing=True, extended=subject),
        ]


def apply_delta_effects(
    fragment: Fragment,
    effects: Iterable[DeltaEffect],
    stores_edge_at: Callable[[Node], bool],
) -> None:
    """Fold a window of :class:`DeltaEffect` into ``fragment``.

    The edge sets take every effect in order.  Then each endpoint the window
    touched gets its membership settled once: a vertex the site still stores
    an edge at (``stores_edge_at``, asked after the whole window) is internal
    when its home is this fragment and extended otherwise, and a vertex
    without one is neither.  Homes are sticky and the home fragment stores
    every incident edge, so this is Definition 1 of the final edge set.
    """
    homes: Dict[Node, bool] = {}
    for effect in effects:
        triple = effect.triple
        edges = fragment.crossing_edges if effect.crossing else fragment.internal_edges
        (edges.add if effect.op == "add" else edges.discard)(triple)
        for vertex in effect.internal_endpoints:
            homes[vertex] = True
        if effect.extended is not None:
            homes[effect.extended] = False
    for vertex, home in homes.items():
        stored = stores_edge_at(vertex)
        for members, wanted in (
            (fragment.internal_vertices, home),
            (fragment.extended_vertices, not home),
        ):
            (members.add if stored and wanted else members.discard)(vertex)
