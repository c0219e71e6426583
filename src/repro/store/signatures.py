"""Vertex signatures for candidate filtering.

gStore encodes the neighbourhood of every data vertex as a fixed-length
bit-signature and filters candidate vertices for each query vertex by
signature containment before running the expensive subgraph matching.  This
module implements the same idea: a vertex's signature hashes its adjacent
(predicate, direction) pairs — and, optionally, adjacent constant neighbour
values — into a bitset, and a query vertex's signature (built only from the
constant information around it) must be a subset of any matching data
vertex's signature.

The index is built over the graph's dictionary-encoded view
(:mod:`repro.store.encoding`): one pass over the integer triples, with the
hash position of every ``(direction, predicate)`` and ``(direction,
predicate, neighbour)`` key computed once and memoized — repeated shapes
(e.g. thousands of ``rdf:type`` edges into the same class) hash once instead
of once per edge.  Signatures are stored per term id, so the candidate
kernel checks containment with one list lookup and one integer AND.

The signature check is a *necessary* condition, never sufficient: the matcher
always re-verifies real edges, so false positives cost time but never
correctness.  False negatives cannot happen because exactly the same hash
positions are set on the query side and the data side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..rdf.graph import RDFGraph
from ..rdf.terms import IRI, Literal, Node, PatternTerm, Variable
from ..sparql.query_graph import QueryGraph
from .encoding import PREDICATE_ANY, EncodedGraph, encoded_view

#: Default signature width in bits.  Wide enough that collisions are rare on
#: the bundled datasets, small enough to stay cheap to build and intersect.
DEFAULT_SIGNATURE_BITS = 256


def _hash_position(key: str, bits: int) -> int:
    """Map ``key`` to a bit position deterministically (process-independent)."""
    # A small FNV-1a so that signatures are stable across runs and platforms
    # (Python's built-in hash() is randomized per process).
    value = 0xCBF29CE484222325
    for char in key.encode("utf-8"):
        value ^= char
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value % bits


#: Query-side positions, each key hashed once (the build path holds no keys here).
_query_position = lru_cache(maxsize=4096)(_hash_position)


@dataclass(frozen=True, slots=True)
class VertexSignature:
    """A bitset summarising a vertex's incident edges."""

    bits: int
    width: int = DEFAULT_SIGNATURE_BITS

    def covers(self, other: "VertexSignature") -> bool:
        """True when every bit set in ``other`` is also set in ``self``."""
        return (self.bits & other.bits) == other.bits

    def __or__(self, other: "VertexSignature") -> "VertexSignature":
        return VertexSignature(self.bits | other.bits, self.width)

    def popcount(self) -> int:
        return bin(self.bits).count("1")


class SignatureIndex:
    """Pre-computed signatures for every vertex of a data graph."""

    def __init__(self, graph: RDFGraph, width: int = DEFAULT_SIGNATURE_BITS) -> None:
        self._width = width
        self._graph = graph
        self._rebuild(encoded_view(graph))

    def _edge_masks(self, memo: Dict, s: int, p: int, o: int) -> Tuple[int, int]:
        """The ``(subject_bits, object_bits)`` one data edge contributes.

        ``memo`` holds the per-predicate direction masks and the
        ``(direction, predicate, neighbour)`` positions, each hashed once.
        """
        dictionary = self._encoded.dictionary
        width = self._width
        cached = memo.get(p)
        if cached is None:
            value = dictionary.term_of(p).value  # data predicates are IRIs
            cached = memo[p] = (
                1 << _hash_position(f"out|{value}", width),
                1 << _hash_position(f"in|{value}", width),
                value,
            )
        out_mask, in_mask, value = cached
        out_pair = memo.get((True, p, o))
        if out_pair is None:
            out_pair = memo[(True, p, o)] = 1 << _hash_position(
                f"out|{value}|{dictionary.n3_of(o)}", width
            )
        in_pair = memo.get((False, p, s))
        if in_pair is None:
            in_pair = memo[(False, p, s)] = 1 << _hash_position(
                f"in|{value}|{dictionary.n3_of(s)}", width
            )
        return out_mask | out_pair, in_mask | in_pair

    def _rebuild(self, encoded: EncodedGraph) -> None:
        """One pass over the encoded triples; bits are stored per term id."""
        self._encoded = encoded
        bits_by_id: List[int] = [0] * len(encoded.dictionary)
        memo: Dict = {}  # the whole graph's positions: dropped after the pass
        for s, p, o in encoded.iter_triple_ids():
            subject_bits, object_bits = self._edge_masks(memo, s, p, o)
            bits_by_id[s] |= subject_bits
            bits_by_id[o] |= object_bits
        self._bits_by_id = bits_by_id
        # What repairs hash, kept for as long as the ids mean the same terms.
        self._memo: Dict = {}
        self._applied_version = self._graph.version

    def _current(self) -> EncodedGraph:
        """The graph's current encoded view, resyncing the bits if stale.

        The graph may have been mutated since this index was built.  When
        the mutation window is available from the graph's journal the bits
        are repaired in place, exactly: signature bits are a union over
        incident edges, so an added edge ORs its masks in, and the endpoints
        of a removed edge (a removal cannot *clear* a bit — another edge may
        have hashed to the same position) get their union recomputed from
        the edges they still have in the patched encoded view.  Either way
        the cost follows the window, not the graph, and the bits equal a
        freshly built index's.  Only a new encoded view (other ids) or a
        journal gap forces a full rebuild.
        """
        encoded = encoded_view(self._graph)
        if encoded is self._encoded and self._applied_version == self._graph.version:
            return encoded
        ops = self._graph.journal_since(self._applied_version) if encoded is self._encoded else None
        if ops is None:
            self._rebuild(encoded)
            return encoded
        bits_by_id = self._bits_by_id
        dictionary = encoded.dictionary
        if len(bits_by_id) < len(dictionary):
            bits_by_id.extend([0] * (len(dictionary) - len(bits_by_id)))
        id_of = dictionary.id_of
        memo = self._memo
        orphaned: Set[int] = set()  # endpoints of removed edges
        for op, triple in ops:
            s = id_of(triple.subject)
            o = id_of(triple.object)
            if op == "+":
                subject_bits, object_bits = self._edge_masks(memo, s, id_of(triple.predicate), o)
                bits_by_id[s] |= subject_bits
                bits_by_id[o] |= object_bits
            else:
                orphaned.update((s, o))
        for vertex in orphaned:
            bits = 0
            for edge in encoded.triple_ids(vertex, PREDICATE_ANY, None):
                bits |= self._edge_masks(memo, *edge)[0]
            for edge in encoded.triple_ids(None, PREDICATE_ANY, vertex):
                bits |= self._edge_masks(memo, *edge)[1]
            bits_by_id[vertex] = bits
        self._applied_version = self._graph.version
        return encoded

    @property
    def width(self) -> int:
        return self._width

    def signature_of(self, vertex: Node) -> VertexSignature:
        """The signature of a data vertex (empty signature if unknown)."""
        vertex_id = self._current().dictionary.get(vertex)
        if vertex_id is None:
            return VertexSignature(0, self._width)
        return VertexSignature(self._bits_by_id[vertex_id], self._width)

    def bits_table(self, encoded: EncodedGraph) -> List[int]:
        """The per-id signature bits, aligned with ``encoded``'s dictionary.

        The kernel-side fast path: callers index the returned list with ids
        from ``encoded`` directly.  Raises ``ValueError`` when ``encoded``
        is not this index's graph's current view (id spaces would differ).
        """
        if encoded is not self._current():
            raise ValueError(
                "signature index belongs to a different graph than the encoded view"
            )
        return self._bits_by_id

    def query_signature(
        self,
        query: QueryGraph,
        vertex: PatternTerm,
        skip_edges: Optional[Iterable[int]] = None,
    ) -> VertexSignature:
        """Build the signature a data vertex must cover to match ``vertex``.

        Only constant information contributes: variable predicates and
        variable neighbours add no bits (they could match anything).  Edges
        listed in ``skip_edges`` are ignored — per-site candidate computation
        uses this to relax constraints on crossing edges whose other endpoint
        lives in a different fragment.
        """
        skipped = set(skip_edges or ())
        bits = 0
        for edge in query.edges_of(vertex):
            if edge.index in skipped:
                continue
            predicate = edge.predicate
            if isinstance(predicate, Variable):
                continue
            if edge.subject == vertex:
                bits |= 1 << _query_position(f"out|{predicate.value}", self._width)
                if not isinstance(edge.object, Variable):
                    bits |= 1 << _query_position(
                        f"out|{predicate.value}|{edge.object.n3()}", self._width
                    )
            if edge.object == vertex:
                bits |= 1 << _query_position(f"in|{predicate.value}", self._width)
                if not isinstance(edge.subject, Variable):
                    bits |= 1 << _query_position(
                        f"in|{predicate.value}|{edge.subject.n3()}", self._width
                    )
        return VertexSignature(bits, self._width)

    def candidates_by_signature(self, query: QueryGraph, vertex: PatternTerm) -> set[Node]:
        """All data vertices whose signature covers the query vertex's signature."""
        encoded = self._current()
        needed = self.query_signature(query, vertex).bits
        if isinstance(vertex, (IRI, Literal)):
            vertex_id = encoded.dictionary.get(vertex)
            known = vertex_id is not None and encoded.is_vertex(vertex_id)
            return {vertex} if known else set()
        bits_by_id = self._bits_by_id
        term_of = encoded.dictionary.term_of
        return {
            term_of(vertex_id)
            for vertex_id in encoded.vertex_ids
            if (bits_by_id[vertex_id] & needed) == needed
        }
