"""SPARQL algebra objects: basic graph patterns and SELECT queries.

The paper only deals with BGP queries (Definition 2); the algebra therefore
consists of a list of triple patterns plus a projection.  A query is
connected if its query graph is connected — disconnected queries are handled
per the paper by evaluating each connected component separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..rdf.terms import PatternTerm, Variable
from ..rdf.triples import TriplePattern


@dataclass(frozen=True)
class BasicGraphPattern:
    """An ordered multiset of triple patterns."""

    patterns: Tuple[TriplePattern, ...]

    def __init__(self, patterns: Iterable[TriplePattern]) -> None:
        object.__setattr__(self, "patterns", tuple(patterns))

    def __iter__(self) -> Iterator[TriplePattern]:
        return iter(self.patterns)

    def __getstate__(self) -> Dict[str, object]:
        return {"patterns": self.patterns}  # a pickle leaves the components cache behind

    def __len__(self) -> int:
        return len(self.patterns)

    def __getitem__(self, index: int) -> TriplePattern:
        return self.patterns[index]

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All distinct variables, in first-appearance order."""
        seen: List[Variable] = []
        for pattern in self.patterns:
            for variable in pattern.variables:
                if variable not in seen:
                    seen.append(variable)
        return tuple(seen)

    @property
    def terms(self) -> Set[PatternTerm]:
        """All distinct subject/object terms (the query-graph vertices)."""
        found: Set[PatternTerm] = set()
        for pattern in self.patterns:
            found.add(pattern.subject)
            found.add(pattern.object)
        return found

    def connected_components(self) -> List["BasicGraphPattern"]:
        """Split the BGP into connected components of its query graph.

        Two triple patterns are connected when they share a subject/object
        term (joins through predicates are not considered graph connections,
        matching the query-graph view of Definition 2).  Computed once per
        instance: the cache is no dataclass field, so equality and hashing
        ignore it.
        """
        cached = self.__dict__.get("_components")
        if cached is not None:
            return list(cached)
        unassigned = list(self.patterns)
        components: List[List[TriplePattern]] = []
        while unassigned:
            component = [unassigned.pop(0)]
            terms = {component[0].subject, component[0].object}
            changed = True
            while changed:
                changed = False
                for pattern in list(unassigned):
                    if pattern.subject in terms or pattern.object in terms:
                        component.append(pattern)
                        terms.add(pattern.subject)
                        terms.add(pattern.object)
                        unassigned.remove(pattern)
                        changed = True
            components.append(component)
        object.__setattr__(self, "_components", tuple(map(BasicGraphPattern, components)))
        return self.connected_components()

    @property
    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1


@dataclass(frozen=True)
class SelectQuery:
    """A parsed SPARQL SELECT (or ASK) query over a single BGP.

    Attributes
    ----------
    bgp:
        The WHERE clause's basic graph pattern.
    projection:
        Variables listed in the SELECT clause; empty tuple means ``SELECT *``.
    distinct:
        Whether DISTINCT was specified.
    is_ask:
        ``True`` for ASK queries (projection is ignored).
    limit:
        Optional LIMIT value.
    """

    bgp: BasicGraphPattern
    projection: Tuple[Variable, ...] = ()
    distinct: bool = False
    is_ask: bool = False
    limit: Optional[int] = None
    prefixes: Dict[str, str] = field(default_factory=dict)

    @property
    def variables(self) -> Tuple[Variable, ...]:
        return self.bgp.variables

    @property
    def effective_projection(self) -> Tuple[Variable, ...]:
        """The projection actually applied (all variables for ``SELECT *``)."""
        return self.projection if self.projection else self.variables

    def __iter__(self) -> Iterator[TriplePattern]:
        return iter(self.bgp)

    def __len__(self) -> int:
        return len(self.bgp)


def bgp_from_patterns(patterns: Sequence[TriplePattern]) -> BasicGraphPattern:
    """Convenience constructor used by programmatic query builders and tests."""
    return BasicGraphPattern(patterns)
