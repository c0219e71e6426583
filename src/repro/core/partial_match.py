"""Local partial matches (Definition 5 of the paper).

A *local partial match* (LPM) is the overlap between a (possible) crossing
match of the query and one fragment: a partial assignment of query vertices
to fragment vertices (unassigned vertices stand for the paper's NULL), where

1. constants must map to themselves (or NULL),
2. every query edge between two assigned vertices must be matched by a data
   edge of the fragment — except when both endpoints map to extended
   vertices, whose connecting edge (if any) lives in another fragment,
3. the LPM contains at least one crossing edge,
4. query vertices mapped to *internal* vertices are fully expanded: every one
   of their query edges is matched, and
5. internally-mapped query vertices are weakly connected through
   internally-mapped paths (so one fragment may contribute several LPMs to
   the same crossing match).

**Wire form.**  An LPM crosses to the coordinator as *keys*: a term's key is
its N3 text, injective over terms, as the producing site's dictionary holds it
(``docs/performance.md``, "LPMs cross as keys").  Joins, Algorithm 1 and sizes
work on the keys; each key's ``Node`` is read only into an answer row.
``assignment``, ``mapping()`` … are views decoded on demand for tests.  A site's
LPMs travel as one :class:`LPMList` message, which carries each distinct key
once and refers to it by a fixed-width reference (``docs/performance.md``,
"Algorithm 2 pays for its bytes") — on the bus and in a pickle alike.

The class below is an immutable value object; the enumeration algorithm
lives in :mod:`repro.core.partial_eval` and the validity checker (used by
tests and by the enumerator's final filter) in :func:`check_local_partial_match`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..partition.fragment import Fragment
from ..rdf.ntriples import parse_term
from ..rdf.terms import IRI, Literal, Node, PatternTerm, Term, Variable
from ..rdf.triples import Triple
from ..sparql.bindings import Binding
from ..sparql.query_graph import QueryGraph

#: ``(slot, key)``: query edge ``i`` owns slot ``i`` and holds its data edge's
#: predicate key, query vertex ``j`` owns slot ``|E_Q| + j`` and holds its data
#: vertex's key (a matched edge's mapped endpoints pin the rest of the edge).
Item = Tuple[int, str]

#: A crossing ``(query edge index, subject, predicate, object)`` pair, as keys.
PairKey = Tuple[int, str, str, str]


@dataclass(eq=False, slots=True)
class LocalPartialMatch:
    """An immutable local partial match produced by one fragment.

    Attributes
    ----------
    fragments:
        The ids of the fragments that contributed to this (possibly joined)
        partial match.  Freshly enumerated LPMs have exactly one.
    query:
        The query graph the slots refer to (read by the decoded views only).
    items, terms:
        One :data:`Item` per matched query edge and mapped query vertex, by
        slot, and the decoded term of each.
    internal_mask:
        Bitmask over query-vertex indices: bit ``i`` is set when query vertex
        ``i`` is mapped to an internal vertex of the producing fragment
        (exactly the LECSign of Definition 8).
    crossing:
        The matched edges whose data edge is a crossing edge of the producing
        fragment — the only part other fragments can share — by edge index.

    Equality and hashing cover the keys, never the term objects.
    """

    fragments: FrozenSet[int]
    query: QueryGraph
    items: Tuple[Item, ...]
    terms: Tuple[Term, ...]
    internal_mask: int
    crossing: Tuple[PairKey, ...]

    def _key(self) -> tuple:
        return (self.fragments, self.items, self.internal_mask, self.crossing)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalPartialMatch):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):  # positional arguments: smaller pickles than slot state
        return (LocalPartialMatch, tuple(getattr(self, name) for name in self.__slots__))

    # ------------------------------------------------------------------
    # Decoded views
    # ------------------------------------------------------------------
    @property
    def fragment_id(self) -> int:
        """The producing fragment id (smallest id for joined matches)."""
        return min(self.fragments)

    def _vertex_terms(self) -> Iterator[Tuple[PatternTerm, Node]]:
        base, vertices = self.query.num_edges, self.query.vertices
        return ((vertices[slot - base], term) for (slot, _), term in zip(self.items, self.terms) if slot >= base)

    @property
    def assignment(self) -> FrozenSet[Tuple[PatternTerm, Node]]:
        """The non-NULL part of the mapping ``f``: (query vertex, data vertex) pairs."""
        return frozenset(self._vertex_terms())

    @property
    def edge_assignment(self) -> FrozenSet[Tuple[int, Triple]]:
        """(query edge index, data triple) for every matched query edge."""
        query, values = self.query, {slot: term for (slot, _), term in zip(self.items, self.terms)}
        base = query.num_edges
        pairs = []
        for slot, predicate in values.items():
            if slot < base:
                edge = query.edge_at(slot)
                subject = values[base + query.vertex_index(edge.subject)]
                pairs.append((slot, Triple(subject, predicate, values[base + query.vertex_index(edge.object)])))
        return frozenset(pairs)

    @property
    def crossing_assignment(self) -> FrozenSet[Tuple[int, Triple]]:
        """The part of ``edge_assignment`` that maps crossing edges."""
        indexes = {pair[0] for pair in self.crossing}
        return frozenset(pair for pair in self.edge_assignment if pair[0] in indexes)

    def mapping(self) -> Dict[PatternTerm, Node]:
        return dict(self.assignment)

    def edge_mapping(self) -> Dict[int, Triple]:
        return dict(self.edge_assignment)

    def matched_vertices(self) -> Set[PatternTerm]:
        return {vertex for vertex, _ in self.assignment}

    def value_of(self, vertex: PatternTerm) -> Optional[Node]:
        return self.mapping().get(vertex)

    @property
    def num_matched(self) -> int:
        return sum(1 for slot, _ in self.items if slot >= self.query.num_edges)

    def internal_vertex_indexes(self) -> Set[int]:
        """Indices of query vertices mapped to internal vertices."""
        return {i for i in range(self.internal_mask.bit_length()) if self.internal_mask >> i & 1}

    def serialization(self, query: QueryGraph) -> Tuple[Optional[str], ...]:
        """The paper's serialization vector ``[f(v1), ..., f(vn)]`` (NULL → ``None``)."""
        mapping = self.mapping()
        return tuple(
            mapping[vertex].n3() if vertex in mapping else None for vertex in query.vertices
        )

    def to_binding(self) -> Binding:
        """The variable bindings of this (complete) match."""
        return Binding({vertex: value for vertex, value in self._vertex_terms() if isinstance(vertex, Variable)})

    def is_complete(self, query: QueryGraph) -> bool:
        """All query vertices internally matched somewhere (Theorem 4, condition 3)."""
        return self.internal_mask == query.full_mask

    # ------------------------------------------------------------------
    # Joining (used by the assembly stage)
    # ------------------------------------------------------------------
    def can_join(self, other: "LocalPartialMatch") -> bool:
        """Join conditions of [18] / Definition 9, applied at the LPM level.

        Two (possibly already joined) partial matches can join when they
        share at least one common crossing edge mapped to the same query
        edge, assign no query edge to different data edges, assign no query
        vertex to different data vertices, and their internally-matched
        vertex sets are disjoint.

        Note that fragment-set disjointness is *not* required: one crossing
        match may overlap a single fragment in several disconnected internal
        regions (condition 6 of Definition 5 splits them into separate local
        partial matches), so an accumulated join legitimately combines two
        partial matches of the same fragment.  Two LPMs of the same fragment
        can never share a crossing edge mapped to the same query edge, so
        the pairwise condition of Definition 9 is unaffected.
        """
        if self.internal_mask & other.internal_mask:
            return False
        if set(self.crossing).isdisjoint(other.crossing):
            return False
        mine = dict(self.items)
        return all(mine.get(slot, key) == key for slot, key in other.items)

    def join(self, other: "LocalPartialMatch") -> "LocalPartialMatch":
        """Merge two joinable partial matches into one larger partial match."""
        return join_matches((self, other))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        pairs = ", ".join(
            f"{vertex.n3()}->{value.n3()}" for vertex, value in sorted(self.assignment, key=lambda p: p[0].n3())
        )
        return f"<LPM F={sorted(self.fragments)} {{{pairs}}}>"


def join_matches(members: Sequence[LocalPartialMatch]) -> LocalPartialMatch:
    """The partial match that joins ``members`` (pairwise joinable, in any order)."""
    merged: Dict[Item, Term] = {}
    fragments, internal_mask, crossing = set(), 0, set()
    for member in members:
        merged.update(zip(member.items, member.terms))
        fragments |= member.fragments
        internal_mask |= member.internal_mask
        crossing.update(member.crossing)
    items = tuple(sorted(merged))
    terms = tuple([merged[item] for item in items])
    return LocalPartialMatch(
        frozenset(fragments), members[0].query, items, terms, internal_mask, tuple(sorted(crossing))
    )


# ----------------------------------------------------------------------
# The message wire form
# ----------------------------------------------------------------------
#: Bytes of one reference: a key's position in its message's table, or an index.
REFERENCE_BYTES = 4
#: Fragment-id and LECSign framing of one LPM.
LPM_FRAMING = 8


def key_bytes(key: str) -> int:
    """What a message's term table pays for one key: its UTF-8 text."""
    return len(key.encode("utf-8"))


class LPMList(list):
    """One site's local partial matches as the message that ships them.

    The wire form is a term table plus references: each distinct key of the
    message once, then per LPM its framing and, per item, a slot index and a
    key reference.  :meth:`shipment_size` charges that form and
    :meth:`__reduce__` pickles it, so a pickled message and the bus's
    charge describe one thing.  The members are enumerated LPMs (one fragment each): a member's
    crossing pairs follow from its items and LECSign, so they are not shipped.

    ``known_keys`` are keys the receiver already holds from this site's own
    ``lec_features`` message (the LEC survivors of :func:`run_lec_filter
    <repro.core.site_tasks.run_lec_filter>`): a reference reaches them in that
    message's table, so their text is not sent again.
    """

    __slots__ = ("known_keys",)

    def __init__(self, lpms: Iterable[LocalPartialMatch] = (), known_keys: AbstractSet[str] = frozenset()) -> None:
        super().__init__(lpms)
        self.known_keys = known_keys

    def shipment_size(self) -> int:
        """Bytes of the message: new keys once, everything else fixed-width.

        4 B of list framing; per LPM, 8 B of fragment-id and mask framing and
        8 B per item — a 4 B slot index (the query edge index, or ``|E_Q|`` +
        the query vertex index) and a 4 B key reference; and the UTF-8 text of
        each distinct key outside ``known_keys``, once per message.
        """
        items = sum([len(lpm.items) for lpm in self])
        keys = {key for lpm in self for _, key in lpm.items} - self.known_keys
        return 4 + LPM_FRAMING * len(self) + 2 * REFERENCE_BYTES * items + sum(map(key_bytes, keys))

    def __reduce__(self):
        """Pickle the wire form: the key table, then ``(slot, key reference)`` per item."""
        references: Dict[str, int] = {}
        records = []
        for lpm in self:
            flat: List[int] = []
            for slot, key in lpm.items:
                reference = references.get(key)
                if reference is None:
                    reference = references[key] = len(references)
                flat += (slot, reference)
            records.append((lpm.query, lpm.fragments, lpm.internal_mask, tuple(flat)))
        return (_rebuild_lpms, (tuple(references), records))


def _rebuild_lpms(keys: Sequence[str], records: Sequence[tuple]) -> LPMList:
    """Unpickle an :class:`LPMList`: parse each key once, derive the crossing pairs.

    A matched edge is a crossing pair unless both ends map to internal
    vertices — the rule the partial evaluator emits by.
    """
    terms = [parse_term(key) for key in keys]
    ends: Dict[int, List[Tuple[int, int]]] = {}
    lpms = LPMList()
    for query, fragments, internal_mask, flat in records:
        edge_ends = ends.get(id(query))
        if edge_ends is None:
            edge_ends = ends[id(query)] = [
                (query.vertex_index(edge.subject), query.vertex_index(edge.object)) for edge in query.edges
            ]
        base, references = query.num_edges, flat[1::2]
        items = tuple(zip(flat[0::2], [keys[reference] for reference in references]))
        held = dict(items)
        crossing = []
        for slot, key in items:
            if slot < base:
                subject, obj = edge_ends[slot]
                if not internal_mask >> subject & internal_mask >> obj & 1:
                    crossing.append((slot, held[base + subject], key, held[base + obj]))
        lpm_terms = tuple([terms[reference] for reference in references])
        lpms.append(LocalPartialMatch(fragments, query, items, lpm_terms, internal_mask, tuple(crossing)))
    return lpms


def check_local_partial_match(
    lpm: LocalPartialMatch,
    query: QueryGraph,
    fragment: Fragment,
) -> List[str]:
    """Check every Definition 5 condition; return a list of violations (empty = valid).

    Used by the test-suite as an oracle over the enumerator's output, and by
    the enumerator itself in paranoid mode.
    """
    violations: List[str] = []
    mapping = lpm.mapping()
    edge_mapping = lpm.edge_mapping()
    fragment_graph_edges = fragment.all_edges

    # Condition 1/2: constants map to themselves; every image is a fragment vertex.
    for vertex, value in mapping.items():
        if isinstance(vertex, (IRI, Literal)) and vertex != value:
            violations.append(f"constant {vertex.n3()} mapped to different term {value.n3()}")
        if value not in fragment.all_vertices:
            violations.append(f"{value.n3()} is not a vertex of fragment {fragment.name}")

    # Condition 3: edges between assigned vertices.
    for edge in query.edges:
        subject_value = mapping.get(edge.subject)
        object_value = mapping.get(edge.object)
        if subject_value is None or object_value is None:
            continue
        both_extended = fragment.is_extended(subject_value) and fragment.is_extended(object_value)
        matched_triple = edge_mapping.get(edge.index)
        if matched_triple is None:
            if not both_extended:
                violations.append(f"query edge #{edge.index} has both endpoints assigned but no data edge")
            continue
        if matched_triple not in fragment_graph_edges:
            violations.append(f"data edge {matched_triple.n3()} is not stored in fragment {fragment.name}")
        if not isinstance(edge.predicate, Variable) and matched_triple.predicate != edge.predicate:
            violations.append(f"data edge {matched_triple.n3()} has the wrong property for edge #{edge.index}")

    # Condition 4: at least one crossing edge.
    if not any(triple in fragment.crossing_edges for _, triple in lpm.edge_assignment):
        violations.append("local partial match contains no crossing edge")

    # Condition 5: internally matched vertices are fully expanded.
    for vertex, value in mapping.items():
        if not fragment.is_internal(value):
            continue
        for edge in query.edges_of(vertex):
            if edge.index not in edge_mapping:
                violations.append(
                    f"internal vertex {value.n3()} (query {vertex.n3()}) misses query edge #{edge.index}"
                )

    # Condition 6: internally matched query vertices weakly connected through
    # internally matched vertices.
    internal_query_vertices = {
        vertex for vertex, value in mapping.items() if fragment.is_internal(value)
    }
    if len(internal_query_vertices) > 1:
        anchor = next(iter(internal_query_vertices))
        for vertex in internal_query_vertices:
            if not query.weakly_connected_via(anchor, vertex, internal_query_vertices):
                violations.append(
                    f"internally matched vertices {anchor.n3()} and {vertex.n3()} are not connected internally"
                )

    # The matched part must be connected through matched data edges.
    if len(mapping) > 1 and not _matched_part_connected(lpm, query):
        violations.append("the matched subgraph is not connected")
    return violations


def _matched_part_connected(lpm: LocalPartialMatch, query: QueryGraph) -> bool:
    matched_vertices = lpm.matched_vertices()
    edge_mapping = lpm.edge_mapping()
    adjacency: Dict[PatternTerm, Set[PatternTerm]] = {vertex: set() for vertex in matched_vertices}
    for index in edge_mapping:
        edge = query.edge_at(index)
        adjacency[edge.subject].add(edge.object)
        adjacency[edge.object].add(edge.subject)
    start = next(iter(matched_vertices))
    seen = {start}
    frontier = [start]
    while frontier:
        vertex = frontier.pop()
        for neighbour in adjacency[vertex]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen == matched_vertices
