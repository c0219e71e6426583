"""The per-fragment id index partial evaluation runs on.

Definition 1 restated over the ids of the site's
:class:`~repro.store.encoding.EncodedGraph`: internal and extended vertices as
int sets, crossing edges as ``(s, p, o)`` id tuples grouped by predicate (a
seed scan touches only its own label) and sorted, which is their rank.

The index is the site's Definition 1: it is derived from the encoding and the
vertex homes (the cluster's vertex → fragment assignment) and nothing else.
A :class:`~repro.distributed.site.Site` builds one with its encoding, reuses it
for every query and patches it with each update window
(:meth:`FragmentIndex.patch`), after the encoding.  :meth:`decoded` gives the
partition-time :class:`~repro.partition.fragment.Fragment` of the same sets,
as a copy.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Dict, Iterable, Mapping, Set, Tuple

from ..partition.fragment import Fragment
from ..rdf.triples import Triple
from ..sparql.query_graph import QueryGraph
from .encoding import EncodedGraph, IdTriple
from .kernel import query_pools


class FragmentIndex:
    """Internal/extended id sets and ranked crossing edges of one fragment."""

    __slots__ = ("fragment_id", "encoded", "internal", "extended", "crossing", "crossing_by_predicate")

    def __init__(self, fragment_id: int, encoded: EncodedGraph, home: Mapping[int, int]) -> None:
        """``home`` maps at least every vertex id of ``encoded`` to its fragment."""
        self.fragment_id = fragment_id
        self.encoded = encoded
        vertices: Set[int] = set()
        for predicate in encoded.predicate_ids():
            vertices.update(encoded.out_column(predicate).keys, encoded.in_column(predicate).keys)
        self.internal: Set[int] = {vertex for vertex in vertices if home.get(vertex) == fragment_id}
        self.extended: Set[int] = vertices - self.internal
        internal = self.internal
        #: predicate id -> that label's crossing edges in ascending id order.
        self.crossing_by_predicate: Dict[int, Tuple[IdTriple, ...]] = {}
        for predicate in encoded.predicate_ids():
            of_label = tuple(
                (s, predicate, o)
                for s, o in encoded.out_column(predicate).pairs()
                if s not in internal or o not in internal
            )
            if of_label:
                self.crossing_by_predicate[predicate] = of_label
        #: Every crossing edge in ascending id order: the seeds of a variable predicate.
        self.crossing: Tuple[IdTriple, ...] = tuple(sorted(chain.from_iterable(self.crossing_by_predicate.values())))

    @classmethod
    def build(cls, fragment: Fragment) -> "FragmentIndex":
        """The index of a partition-time ``fragment`` over a fresh encoding of its edges."""
        encoded = EncodedGraph(fragment.all_edges)
        home = dict.fromkeys(encoded.dictionary.encode_nodes(fragment.internal_vertices), fragment.fragment_id)
        return cls(fragment.fragment_id, encoded, home)

    @property
    def name(self) -> str:
        return f"F{self.fragment_id}"

    def patch(self, ops: Iterable[Tuple[str, IdTriple]], home: Mapping[int, int]) -> None:
        """Follow an update window of the site, to what a fresh build gives.

        The encoding must already be patched.  Vertex homes are sticky, so
        only the window's triples and their endpoints can have changed class:
        a vertex the site still stores an edge at is internal at its home and
        extended elsewhere, and one without an edge is neither; a stored
        triple is crossing when its endpoints' homes differ.

        The internal restriction of a pool the encoding kept stays exact: the
        pool reads only rows and key lists the window left alone, so it holds
        no vertex that came to or left the site, and only such a vertex
        changes class.
        """
        encoded = self.encoded
        triples = {ids for _, ids in ops}
        for vertex in {vertex for s, _, o in triples for vertex in (s, o)}:
            stored = encoded.is_vertex(vertex)
            at_home = home[vertex] == self.fragment_id
            (self.internal.add if stored and at_home else self.internal.discard)(vertex)
            (self.extended.add if stored and not at_home else self.extended.discard)(vertex)
        for ids in triples:
            s, p, o = ids
            present = home[s] != home[o] and encoded.has_edge(s, p, o)
            self.crossing = _with(self.crossing, ids, present)
            of_label = _with(self.crossing_by_predicate.get(p, ()), ids, present)
            if of_label:
                self.crossing_by_predicate[p] = of_label
            else:
                self.crossing_by_predicate.pop(p, None)

    def decoded(self) -> Fragment:
        """The same Definition 1 sets as a partition-time :class:`Fragment` of terms: a copy."""
        dictionary = self.encoded.dictionary
        term_of = dictionary.term_of
        edges = {Triple(term_of(s), term_of(p), term_of(o)) for s, p, o in self.encoded.iter_triple_ids()}
        crossing = {Triple(term_of(s), term_of(p), term_of(o)) for s, p, o in self.crossing}
        return Fragment(
            self.fragment_id,
            dictionary.decode_ids(self.internal),
            edges - crossing,
            crossing,
            dictionary.decode_ids(self.extended),
        )


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
    restricted to the fragment's internal ids, each kept with its pool."""
    internal = CandidateIds()
    for vertex, entry in query_pools(index.encoded, query).items():
        if entry.internal is None:
            entry.internal = index.internal.intersection(entry.pool)
        internal[vertex] = entry.internal
    internal.encoded = index.encoded
    return internal
