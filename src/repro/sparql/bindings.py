"""Solution mappings (bindings) and result sets.

A :class:`Binding` maps query variables to RDF terms; a :class:`ResultSet`
holds solutions as rows, a tuple of terms per solution in column order, with
helpers for projection, dedup and comparison.  All distributed engines and
baselines in this repository return ``ResultSet`` objects, so the integration
tests can compare them directly against the centralized ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..rdf.terms import Node, Variable


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


#: One solution in a :class:`ResultSet`: a cell per column, ``None`` when unbound.
Row = Tuple[Optional[Node], ...]


class ResultSet:
    """Solutions as rows: a tuple per solution, a cell per column of :attr:`variables`.

    A cell is a term, or ``None`` where the solution leaves the variable
    unbound; a variable projected twice is two equal columns.  Iteration,
    :meth:`as_set` and :meth:`same_solutions` build :class:`Binding` objects on demand.
    """

    __slots__ = ("variables", "rows")

    def __init__(
        self, bindings: Iterable[Binding] = (), variables: Sequence[Variable] = (), *, rows: Optional[List[Row]] = None
    ) -> None:
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self.rows: List[Row] = [] if rows is None else rows
        if bindings:
            self.extend(bindings)

    def add(self, binding: Binding) -> None:
        self.extend((binding,))

    def extend(self, bindings: Iterable[Binding]) -> None:
        """Append ``bindings`` as rows; a variable they bind beyond :attr:`variables`
        becomes a new column, in order of first appearance (by name within a binding)."""
        bindings = list(bindings)
        names = {variable.name for variable in self.variables}
        unseen = {variable for binding in bindings for variable, _ in binding._items if variable.name not in names}
        if unseen:
            ordered = (v for binding in bindings for v in sorted(binding.variables, key=lambda v: v.name))
            added = tuple(dict.fromkeys(v for v in ordered if v in unseen))
            self.variables += added
            self.rows = [row + (None,) * len(added) for row in self.rows]
        # Keyed by name: a str hashes in C, a Variable in Python.
        first = {variable.name: position for variable, position in self.first_columns().items()}
        positions = [first[variable.name] for variable in self.variables]
        for binding in bindings:
            # Fill each variable's first column; a column projected twice copies it.
            row: List[Optional[Node]] = [None] * len(positions)
            for variable, value in binding._items:
                row[first[variable.name]] = value
            self.rows.append(tuple(row) if len(first) == len(row) else tuple(map(row.__getitem__, positions)))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Binding]:
        columns = self.variables
        for row in self.rows:
            yield Binding(frozenset([pair for pair in zip(columns, row) if pair[1] is not None]))

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __contains__(self, binding: Binding) -> bool:
        return binding in self.as_set()

    def __eq__(self, other: object) -> bool:
        """Same columns and the same row sequence (:meth:`same_solutions` ignores order)."""
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.variables == other.variables and self.rows == other.rows

    def first_columns(self) -> Dict[Variable, int]:
        """The position of each variable's first column."""
        return {variable: self.variables.index(variable) for variable in self.variables}

    def project(self, variables: Sequence[Variable], distinct: bool = False) -> "ResultSet":
        """The columns ``variables`` (unbound where no column has the variable)."""
        positions = list(map(self.first_columns().get, variables))
        if len(positions) > 1 and None not in positions:
            rows = list(map(itemgetter(*positions), self.rows))
        else:
            rows = [tuple([None if p is None else row[p] for p in positions]) for row in self.rows]
        return ResultSet(variables=variables, rows=list(dict.fromkeys(rows)) if distinct else rows)

    def distinct(self) -> "ResultSet":
        return self.project(self.variables, distinct=True)

    def limit(self, count: Optional[int]) -> "ResultSet":
        return self if count is None else ResultSet(variables=self.variables, rows=self.rows[:count])

    def as_set(self) -> FrozenSet[Binding]:
        """Order-insensitive view used for equality checks in tests."""
        return frozenset(self)

    def same_solutions(self, other: "ResultSet") -> bool:
        """Compare two result sets as sets of solution mappings."""
        return self.as_set() == other.as_set()

    def shipment_size(self) -> int:
        """``4 + Σ len(repr(binding))`` over the rows' bindings, nothing printed; a
        variable projected twice is one pair of the binding, charged at its first column."""
        # A pair prints as "?name=<n3>" plus a ", " separator; "Binding()" is 9, less one separator.
        columns = [(p, len(variable.name) + 4) for variable, p in self.first_columns().items()]
        total = 4
        for row in self.rows:
            text = sum([framing + len(row[p].n3()) for p, framing in columns if row[p] is not None])
            total += text + 7 if text else 9
        return total

    def to_table(self) -> List[Dict[str, str]]:
        """Render rows as dictionaries of variable name → N3 term text, in column order."""
        names = [variable.name for variable in self.variables]
        return [{name: cell.n3() for name, cell in zip(names, row) if cell is not None} for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ResultSet solutions={len(self)} vars={[v.name for v in self.variables]}>"
