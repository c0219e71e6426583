"""The per-fragment id index partial evaluation runs on.

Definition 1 restated over the ids of the site graph's
:class:`~repro.store.encoding.EncodedGraph`: internal and extended vertices as
int sets, crossing edges as ``(s, p, o)`` id tuples grouped by predicate (a
seed scan touches only its own label) and sorted, which is their rank.

:func:`fragment_index` caches one index on the graph object, keyed on
:attr:`~repro.rdf.graph.RDFGraph.version` like ``encoded_view``: reused by
every query, rebuilt after an update (the stale one is released first, so two
never coexist).  A fully built index is published by one attribute assignment;
threads that miss together each build one and either may win.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Set, Tuple

from ..partition.fragment import Fragment
from ..rdf.graph import RDFGraph
from .encoding import EncodedGraph, encoded_view

IdTriple = Tuple[int, int, int]

#: Attribute under which :func:`fragment_index` caches the per-graph index.
_CACHE_ATTRIBUTE = "_repro_fragment_index"


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


def fragment_index(fragment: Fragment, graph: RDFGraph) -> FragmentIndex:
    """The (cached) id index of ``fragment`` over its materialized ``graph``."""
    cached = getattr(graph, _CACHE_ATTRIBUTE, None)
    if cached is not None and cached[0] == graph.version and cached[1] is fragment:
        return cached[2]
    del cached  # ... and the graph's reference: a stale index goes before its replacement is built
    setattr(graph, _CACHE_ATTRIBUTE, None)
    version = graph.version
    index = FragmentIndex(fragment, encoded_view(graph))
    setattr(graph, _CACHE_ATTRIBUTE, (version, fragment, index))
    return index
