"""In-memory indexed RDF graph.

:class:`RDFGraph` is the data substrate of the whole reproduction: fragments,
local stores, partitioners and the centralized ground-truth matcher all
operate on it.  It keeps the classic three permutation indexes (SPO, POS,
OSP) plus per-vertex adjacency, so the pattern-matching code can answer
``triples(s, p, o)`` with any combination of bound positions efficiently.

The graph view of an RDF dataset (subjects/objects as vertices, triples as
labelled directed edges) is the one used throughout the paper; this class
exposes both the triple view and the graph view.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .terms import IRI, Literal, Node, Term
from .triples import Triple

#: How many of the most recent mutations each graph remembers.  Derived
#: structures (the encoded view, sorted columns, statistics) patch
#: themselves from this window; falling off the end of it simply degrades
#: to the pre-delta behaviour of a full rebuild, so the bound trades a
#: little memory for never penalising bulk loads.
JOURNAL_LIMIT = 4096


class RDFGraph:
    """A mutable, indexed, in-memory RDF graph.

    Parameters
    ----------
    triples:
        Optional iterable of :class:`Triple` to load at construction time.
    name:
        Optional human-readable name (used by datasets and fragments).
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None, name: str = "") -> None:
        self.name = name
        self._triples: Set[Triple] = set()
        # Mutation counter: bumped by every successful add/discard so derived
        # views (e.g. the dictionary-encoded kernel in repro.store.encoding)
        # can cache themselves against one graph state and rebuild lazily.
        self._version = 0
        # Bounded journal of the most recent mutations, each entry being
        # ``(version-after-the-op, "+"|"-", triple)``.  Consumers call
        # :meth:`journal_since` to patch incrementally instead of rebuilding.
        self._journal: Deque[Tuple[int, str, Triple]] = deque(maxlen=JOURNAL_LIMIT)
        # Permutation indexes.
        self._spo: Dict[Node, Dict[IRI, Set[Node]]] = defaultdict(lambda: defaultdict(set))
        self._pos: Dict[IRI, Dict[Node, Set[Node]]] = defaultdict(lambda: defaultdict(set))
        self._osp: Dict[Node, Dict[Node, Set[IRI]]] = defaultdict(lambda: defaultdict(set))
        # Graph-view adjacency: vertex -> outgoing / incoming triples.
        self._out: Dict[Node, Set[Triple]] = defaultdict(set)
        self._in: Dict[Node, Set[Triple]] = defaultdict(set)
        if triples is not None:
            for triple in triples:
                self.add(triple)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> bool:
        """Add ``triple``; return ``True`` if it was not already present."""
        if triple in self._triples:
            return False
        self._triples.add(triple)
        s, p, o = triple.as_tuple()
        self._spo[s][p].add(o)
        self._pos[p][s].add(o)
        self._osp[o][s].add(p)
        self._out[s].add(triple)
        self._in[o].add(triple)
        self._version += 1
        self._journal.append((self._version, "+", triple))
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add every triple of ``triples``; return how many were new."""
        return sum(1 for triple in triples if self.add(triple))

    def discard(self, triple: Triple) -> bool:
        """Remove ``triple`` if present; return ``True`` if it was removed."""
        if triple not in self._triples:
            return False
        self._triples.discard(triple)
        s, p, o = triple.as_tuple()
        self._spo[s][p].discard(o)
        self._pos[p][s].discard(o)
        self._osp[o][s].discard(p)
        self._out[s].discard(triple)
        self._in[o].discard(triple)
        self._version += 1
        self._journal.append((self._version, "-", triple))
        return True

    def journal_since(self, version: int) -> Optional[List[Tuple[str, Triple]]]:
        """The ``("+"|"-", triple)`` ops that took the graph from ``version``
        to its current state, oldest first.

        Returns ``None`` when the window is unknowable — ``version`` is ahead
        of the graph, or the ops have already fallen out of the bounded
        journal — in which case callers must fall back to a full rebuild.
        """
        if version == self._version:
            return []
        if version > self._version:
            return None
        needed = self._version - version
        if needed > len(self._journal):
            return None
        entries = list(self._journal)[-needed:]
        if entries[0][0] != version + 1:  # pragma: no cover - defensive
            return None
        return [(op, triple) for _, op, triple in entries]

    # ------------------------------------------------------------------
    # Triple view
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def triples(
        self,
        subject: Optional[Node] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Node] = None,
    ) -> Iterator[Triple]:
        """Iterate over triples matching the given bound positions.

        ``None`` means "any term".  The most selective available index is
        used for each combination of bound positions.
        """
        if subject is not None and predicate is not None and object is not None:
            candidate = Triple(subject, predicate, object)
            if candidate in self._triples:
                yield candidate
            return
        if subject is not None and predicate is not None:
            for obj in self._spo.get(subject, {}).get(predicate, ()):
                yield Triple(subject, predicate, obj)
            return
        if subject is not None and object is not None:
            for pred in self._osp.get(object, {}).get(subject, ()):
                yield Triple(subject, pred, object)
            return
        if predicate is not None and object is not None:
            for subj, objects in self._pos.get(predicate, {}).items():
                if object in objects:
                    yield Triple(subj, predicate, object)
            return
        if subject is not None:
            yield from self._out.get(subject, ())
            return
        if object is not None:
            yield from self._in.get(object, ())
            return
        if predicate is not None:
            for subj, objects in self._pos.get(predicate, {}).items():
                for obj in objects:
                    yield Triple(subj, predicate, obj)
            return
        yield from self._triples

    def count(
        self,
        subject: Optional[Node] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Node] = None,
    ) -> int:
        """Number of triples matching the given bound positions.

        Answered from index lengths wherever an index covers the shape, so no
        :class:`Triple` objects are materialized just to be counted.
        """
        if subject is not None and predicate is not None and object is not None:
            return 1 if Triple(subject, predicate, object) in self._triples else 0
        if subject is not None and predicate is not None:
            return len(self._spo.get(subject, {}).get(predicate, ()))
        if subject is not None and object is not None:
            return len(self._osp.get(object, {}).get(subject, ()))
        if predicate is not None and object is not None:
            return sum(
                1 for objects in self._pos.get(predicate, {}).values() if object in objects
            )
        if subject is not None:
            return len(self._out.get(subject, ()))
        if object is not None:
            return len(self._in.get(object, ()))
        if predicate is not None:
            return sum(len(objects) for objects in self._pos.get(predicate, {}).values())
        return len(self._triples)

    # ------------------------------------------------------------------
    # Graph view
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by every add/discard).

        Derived structures cache against this value and rebuild lazily when
        it moves, instead of eagerly invalidating on every write.
        """
        return self._version

    @property
    def vertices(self) -> Set[Node]:
        """All subjects and objects of the graph."""
        found: Set[Node] = set()
        found.update(self._out.keys())
        found.update(self._in.keys())
        # .get() keeps the membership probe from inserting empty sets into
        # the adjacency defaultdicts (which would grow memory on every call).
        return {v for v in found if self._out.get(v) or self._in.get(v)}

    @property
    def predicates(self) -> Set[IRI]:
        """All predicates (edge labels) used in the graph."""
        return {p for p, index in self._pos.items() if index and any(index.values())}

    @property
    def entities(self) -> Set[Node]:
        """All vertices that are not literals (IRIs and blank nodes)."""
        return {v for v in self.vertices if not isinstance(v, Literal)}

    def out_edges(self, vertex: Node) -> Set[Triple]:
        """Triples whose subject is ``vertex``."""
        return set(self._out.get(vertex, ()))

    def in_edges(self, vertex: Node) -> Set[Triple]:
        """Triples whose object is ``vertex``."""
        return set(self._in.get(vertex, ()))

    def edges_of(self, vertex: Node) -> Set[Triple]:
        """All triples adjacent to ``vertex`` in either direction."""
        return self.out_edges(vertex) | self.in_edges(vertex)

    def degree(self, vertex: Node) -> int:
        """Number of adjacent triples of ``vertex``."""
        return len(self._out.get(vertex, ())) + len(self._in.get(vertex, ()))

    def neighbours(self, vertex: Node) -> Set[Node]:
        """All vertices adjacent to ``vertex`` in either direction."""
        result: Set[Node] = set()
        for triple in self._out.get(vertex, ()):
            result.add(triple.object)
        for triple in self._in.get(vertex, ()):
            result.add(triple.subject)
        result.discard(vertex)
        return result

    def subjects(self, predicate: Optional[IRI] = None, object: Optional[Node] = None) -> Set[Node]:
        """Distinct subjects of triples matching ``predicate``/``object``."""
        return {t.subject for t in self.triples(None, predicate, object)}

    def objects(self, subject: Optional[Node] = None, predicate: Optional[IRI] = None) -> Set[Node]:
        """Distinct objects of triples matching ``subject``/``predicate``."""
        return {t.object for t in self.triples(subject, predicate, None)}

    # ------------------------------------------------------------------
    # Whole-graph helpers
    # ------------------------------------------------------------------
    def copy(self, name: str = "") -> "RDFGraph":
        """Return a shallow copy (terms and triples are immutable anyway)."""
        return RDFGraph(self._triples, name=name or self.name)

    def __or__(self, other: "RDFGraph") -> "RDFGraph":
        merged = self.copy()
        merged.add_all(other)
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RDFGraph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self) -> int:  # pragma: no cover - graphs rarely hashed
        return hash(frozenset(self._triples))

    def connected_components(self) -> List[Set[Node]]:
        """Weakly connected components of the graph view."""
        remaining = set(self.vertices)
        components: List[Set[Node]] = []
        while remaining:
            seed = next(iter(remaining))
            component = {seed}
            frontier = [seed]
            while frontier:
                vertex = frontier.pop()
                for neighbour in self.neighbours(vertex):
                    if neighbour not in component:
                        component.add(neighbour)
                        frontier.append(neighbour)
            components.append(component)
            remaining -= component
        return components

    def induced_subgraph(self, vertices: Iterable[Node], name: str = "") -> "RDFGraph":
        """Subgraph induced by ``vertices`` (both endpoints must be included)."""
        wanted = set(vertices)
        sub = RDFGraph(name=name)
        for vertex in wanted:
            for triple in self._out.get(vertex, ()):
                if triple.object in wanted:
                    sub.add(triple)
        return sub

    def stats(self) -> Dict[str, int]:
        """Summary statistics used by dataset generators and reports."""
        return {
            "triples": len(self),
            "vertices": len(self.vertices),
            "predicates": len(self.predicates),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        label = f" {self.name!r}" if self.name else ""
        return f"<RDFGraph{label} triples={len(self)} vertices={len(self.vertices)}>"
