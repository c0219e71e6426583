"""The per-fragment id index partial evaluation runs on.

Definition 1 restated over the ids of the site's
:class:`~repro.store.encoding.EncodedGraph`: internal and extended vertices as
int sets, crossing edges as ``(s, p, o)`` id tuples grouped by predicate (a
seed scan touches only its own label) and sorted, which is their rank.

A :class:`~repro.distributed.site.Site` builds one index with its encoding,
reuses it for every query and patches it with each update window
(:meth:`FragmentIndex.patch`), after the encoding and the fragment.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Dict, Iterable, Set, Tuple

from ..partition.fragment import Fragment
from ..rdf.triples import Triple
from ..sparql.query_graph import QueryGraph
from .encoding import EncodedGraph
from .kernel import query_pools

IdTriple = Tuple[int, int, int]


class FragmentIndex:
    """Internal/extended id sets and ranked crossing edges of one fragment."""

    __slots__ = ("encoded", "internal", "extended", "crossing", "crossing_by_predicate")

    def __init__(self, fragment: Fragment, encoded: EncodedGraph) -> None:
        dictionary = encoded.dictionary
        id_of = dictionary.id_of
        self.encoded = encoded
        self.internal: Set[int] = dictionary.encode_nodes(fragment.internal_vertices)
        self.extended: Set[int] = dictionary.encode_nodes(fragment.extended_vertices)
        by_predicate: Dict[int, list] = {}
        for edge in fragment.crossing_edges:
            ids = (id_of(edge.subject), id_of(edge.predicate), id_of(edge.object))
            by_predicate.setdefault(ids[1], []).append(ids)
        #: predicate id -> that label's crossing edges in ascending id order.
        self.crossing_by_predicate: Dict[int, Tuple[IdTriple, ...]] = {
            predicate: tuple(sorted(triples)) for predicate, triples in by_predicate.items()
        }
        #: Every crossing edge in ascending id order: the seeds of a variable predicate.
        self.crossing: Tuple[IdTriple, ...] = tuple(sorted(chain.from_iterable(by_predicate.values())))

    @classmethod
    def build(cls, fragment: Fragment) -> "FragmentIndex":
        """The index of ``fragment`` over a fresh encoding of its edges."""
        return cls(fragment, EncodedGraph(fragment.all_edges))

    def patch(self, fragment: Fragment, ops: Iterable[Tuple[str, Triple]]) -> None:
        """Follow an update window of the site, to what a fresh build gives.

        The encoding must already hold the window's terms (it is patched first).

        Vertex homes are sticky, so only the window's triples and their
        endpoints can have changed class: each is re-tested against
        ``fragment``'s sets, which the delta has already been folded into.
        """
        id_of = self.encoded.dictionary.id_of
        for triple in {triple for _, triple in ops}:
            ids = (id_of(triple.subject), id_of(triple.predicate), id_of(triple.object))
            for vertex, vertex_id in ((triple.subject, ids[0]), (triple.object, ids[2])):
                for ids_of_class, members in (
                    (self.internal, fragment.internal_vertices),
                    (self.extended, fragment.extended_vertices),
                ):
                    (ids_of_class.add if vertex in members else ids_of_class.discard)(vertex_id)
            present = triple in fragment.crossing_edges
            self.crossing = _with(self.crossing, ids, present)
            of_label = _with(self.crossing_by_predicate.get(ids[1], ()), ids, present)
            if of_label:
                self.crossing_by_predicate[ids[1]] = of_label
            else:
                self.crossing_by_predicate.pop(ids[1], None)


def _with(triples: Tuple[IdTriple, ...], ids: IdTriple, present: bool) -> Tuple[IdTriple, ...]:
    """The sorted ``triples`` with ``ids`` in (``present``) or out of them."""
    at = bisect_left(triples, ids)
    found = at < len(triples) and triples[at] == ids
    if found == present:
        return triples
    return triples[:at] + ((ids,) if present else ()) + triples[at + found :]


class CandidateIds(dict):
    """Per query vertex, a set of candidate ids of :attr:`encoded`, never decoded."""

    encoded: EncodedGraph


def internal_pools(index: FragmentIndex, query: QueryGraph) -> CandidateIds:
    """``query``'s pools on ``index.encoded`` (:func:`~repro.store.kernel.query_pools`)
    restricted to the fragment's internal ids, kept with them."""
    entry = query_pools(index.encoded, query)
    if entry.internal is None:
        internal = CandidateIds((v, index.internal.intersection(pool)) for v, pool in entry.pools.items())
        internal.encoded, entry.internal = index.encoded, internal
    return entry.internal
