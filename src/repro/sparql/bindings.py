"""Solution mappings (bindings) and result sets.

A :class:`Binding` maps query variables to RDF terms; a :class:`ResultSet`
is an ordered collection of bindings with helpers for projection, dedup and
comparison.  All distributed engines and baselines in this repository return
``ResultSet`` objects, so the integration tests can compare them directly
against the centralized ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..rdf.terms import Node, Term, Variable


@dataclass(frozen=True)
class Binding:
    """An immutable solution mapping from variables to concrete terms."""

    _items: FrozenSet[Tuple[Variable, Node]]

    def __init__(self, mapping: Mapping[Variable, Node] | Iterable[Tuple[Variable, Node]] = ()) -> None:
        # The engines' per-solution forms (frozenset of pairs, dict) skip the ABC check.
        if isinstance(mapping, frozenset):
            items = mapping
        elif isinstance(mapping, (dict, Mapping)):
            items = frozenset(mapping.items())
        else:
            items = frozenset(mapping)
        object.__setattr__(self, "_items", items)

    def __hash__(self) -> int:
        return hash(self._items)

    def as_dict(self) -> Dict[Variable, Node]:
        return dict(self._items)

    def get(self, variable: Variable, default: Optional[Node] = None) -> Optional[Node]:
        for var, value in self._items:
            if var == variable:
                return value
        return default

    def __getitem__(self, variable: Variable) -> Node:
        value = self.get(variable)
        if value is None:
            raise KeyError(variable)
        return value

    def __contains__(self, variable: Variable) -> bool:
        return self.get(variable) is not None

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Variable]:
        return iter(var for var, _ in self._items)

    @property
    def variables(self) -> Set[Variable]:
        return {var for var, _ in self._items}

    def project(self, variables: Sequence[Variable]) -> "Binding":
        """Keep only the given variables (missing ones are dropped); ``self`` if none is."""
        wanted = set(variables)
        items = self._items
        for var, _ in items:
            if var not in wanted:
                return Binding(frozenset([item for item in items if item[0] in wanted]))
        return self

    def compatible_with(self, other: "Binding") -> bool:
        """SPARQL compatibility: shared variables must have equal values."""
        mine = self.as_dict()
        for var, value in other._items:
            if var in mine and mine[var] != value:
                return False
        return True

    def merge(self, other: "Binding") -> "Binding":
        """Union of two compatible bindings."""
        merged = self.as_dict()
        merged.update(other.as_dict())
        return Binding(merged)

    def shipment_size(self) -> int:
        """Bytes a shipped solution is charged: ``len(repr(self))``, without printing it."""
        items = self._items
        text = sum(len(var.name) + 2 + len(value.n3()) for var, value in items)
        return 9 + text + 2 * max(len(items) - 1, 0)

    def __repr__(self) -> str:
        inner = ", ".join(f"{var.n3()}={value.n3()}" for var, value in sorted(self._items, key=lambda i: i[0].name))
        return f"Binding({inner})"


class ResultSet:
    """An ordered, comparable collection of :class:`Binding` objects."""

    def __init__(self, bindings: Iterable[Binding] = (), variables: Sequence[Variable] = ()) -> None:
        self._bindings: List[Binding] = list(bindings)
        self._variables: Tuple[Variable, ...] = tuple(variables)

    @property
    def variables(self) -> Tuple[Variable, ...]:
        if self._variables:
            return self._variables
        seen: List[Variable] = []
        for binding in self._bindings:
            for variable in sorted(binding.variables, key=lambda v: v.name):
                if variable not in seen:
                    seen.append(variable)
        return tuple(seen)

    def add(self, binding: Binding) -> None:
        self._bindings.append(binding)

    def extend(self, bindings: Iterable[Binding]) -> None:
        self._bindings.extend(bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __iter__(self) -> Iterator[Binding]:
        return iter(self._bindings)

    def __bool__(self) -> bool:
        return bool(self._bindings)

    def __contains__(self, binding: Binding) -> bool:
        return binding in self._bindings

    def project(self, variables: Sequence[Variable], distinct: bool = False) -> "ResultSet":
        projected = [binding.project(variables) for binding in self._bindings]
        if distinct:
            seen: Set[Binding] = set()
            unique: List[Binding] = []
            for binding in projected:
                if binding not in seen:
                    seen.add(binding)
                    unique.append(binding)
            projected = unique
        return ResultSet(projected, variables)

    def distinct(self) -> "ResultSet":
        return self.project(self.variables, distinct=True)

    def limit(self, count: Optional[int]) -> "ResultSet":
        if count is None:
            return self
        return ResultSet(self._bindings[:count], self._variables)

    def as_set(self) -> FrozenSet[Binding]:
        """Order-insensitive view used for equality checks in tests."""
        return frozenset(self._bindings)

    def same_solutions(self, other: "ResultSet") -> bool:
        """Compare two result sets as sets of solution mappings."""
        return self.as_set() == other.as_set()

    def to_table(self) -> List[Dict[str, str]]:
        """Render bindings as dictionaries of variable name → N3 term text.

        A row lists its variables in :attr:`variables` order (the projection
        order when one was given), then any others it binds by name.
        """
        names = [var.name for var in self.variables]
        rows = []
        for binding in self._bindings:
            texts = {var.name: value.n3() for var, value in binding._items}
            row = {name: texts[name] for name in names if name in texts}
            if len(row) < len(texts):
                row.update(sorted(texts.items()))
            rows.append(row)
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ResultSet solutions={len(self)} vars={[v.name for v in self.variables]}>"
