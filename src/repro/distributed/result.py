"""The one query result type: solutions plus the statistics of their run.

Every evaluator in the repository — the gStoreD engine, the four comparison
systems and the centralized ground truth — returns a :class:`Result` from
``execute()``.  It lives beside :class:`~repro.distributed.QueryStatistics`
so :mod:`repro.core` and :mod:`repro.baselines` can build one without
importing the session layer; :mod:`repro.api` re-exports it.

* solutions are rendered on demand — ``rows()`` / ``sorted_rows()`` /
  ``to_dicts()`` are computed the first time they are asked for and cached;
* the :class:`~repro.distributed.QueryStatistics` of the producing run is
  always attached (centralized evaluation gets a single-stage statistics
  object), so cost reporting works identically for all six evaluators;
* equality helpers (:meth:`same_solutions`, ``==`` over sorted rows) give
  the equivalence tests one canonical comparison regardless of which engine
  produced which side.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from .stats import QueryStatistics
from ..sparql.bindings import Binding, ResultSet


class Result:
    """Solutions of one query plus the statistics of the run that produced them.

    The canonical row form is *sorted N3 text*: every binding becomes a tuple
    of ``variable=term`` strings sorted within the row, and
    :meth:`sorted_rows` sorts the rows themselves — two engines agree on a
    query exactly when their ``sorted_rows()`` are equal, independent of
    solution order, variable order, or which engine produced them.
    """

    def __init__(self, results: ResultSet, statistics: Optional[QueryStatistics] = None) -> None:
        #: The underlying :class:`~repro.sparql.bindings.ResultSet`.
        self.results = results
        self._statistics = statistics if statistics is not None else QueryStatistics()
        self._rows: Optional[List[Tuple[str, ...]]] = None
        self._sorted_rows: Optional[List[Tuple[str, ...]]] = None
        self._dicts: Optional[List[Dict[str, str]]] = None
        #: The :class:`~repro.obs.Trace` of the producing run, when the
        #: session was opened with ``trace=True`` (``None`` otherwise).
        self.trace = None
        #: The :class:`~repro.distributed.ShipmentSnapshot` of the run's
        #: ledger, set by :class:`~repro.api.Session` (``None`` otherwise).
        self.shipment = None

    @property
    def statistics(self) -> QueryStatistics:
        """Per-stage timing, shipment and counters of the producing run.

        Every run builds its own statistics and nothing else holds them after
        ``execute()`` returns, so a later query never changes these numbers.
        """
        return self._statistics

    @property
    def cache_hit(self) -> bool:
        """Always ``False``: a session executes every query it is given."""
        # Read by the end-to-end benchmark's JSON-encode probe; the e2e v2
        # change to that benchmark drops the read, and this property with it.
        return False

    @property
    def degraded(self) -> bool:
        """Always ``False``: a failing site raises :class:`~repro.exec.SiteTaskError`."""
        # Read by the end-to-end benchmark's JSON-encode probe; the e2e v2
        # change to that benchmark drops the read, and this property with it.
        return False

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __bool__(self) -> bool:
        return bool(self.results)

    # ------------------------------------------------------------------
    # Row views
    # ------------------------------------------------------------------
    def rows(self) -> List[Tuple[str, ...]]:
        """Solutions as tuples of ``variable=N3`` strings (engine order).

        Each tuple is sorted by variable name, so a row is a canonical
        rendering of one solution mapping; the list preserves the engine's
        solution order.  Computed once and cached.
        """
        if self._rows is None:
            columns = sorted((v.name, p) for v, p in self.results.first_columns().items())
            self._rows = [
                tuple([f"{name}={row[p].n3()}" for name, p in columns if row[p] is not None])
                for row in self.results.rows
            ]
        return self._rows

    def sorted_rows(self) -> List[Tuple[str, ...]]:
        """The canonical order-insensitive row form used by the parity suite."""
        if self._sorted_rows is None:
            self._sorted_rows = sorted(self.rows())
        return self._sorted_rows

    def to_dicts(self) -> List[Dict[str, str]]:
        """Solutions as ``{variable name: N3 text}`` dictionaries (cached)."""
        if self._dicts is None:
            self._dicts = self.results.to_table()
        return self._dicts

    # ------------------------------------------------------------------
    # Equality helpers
    # ------------------------------------------------------------------
    def same_solutions(self, other: Union["Result", ResultSet]) -> bool:
        """Order-insensitive solution equality against another result."""
        other_set = other.results if isinstance(other, Result) else other
        return self.results.same_solutions(other_set)

    def __eq__(self, other: object) -> bool:
        """Multiset equality over :meth:`sorted_rows`, whether the other side
        is a :class:`Result` or a bare :class:`ResultSet` (use
        :meth:`same_solutions` for set semantics)."""
        if isinstance(other, Result):
            return self.sorted_rows() == other.sorted_rows()
        if isinstance(other, ResultSet):
            return self.sorted_rows() == Result(other).sorted_rows()
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - defined for protocol completeness
        return hash(tuple(self.sorted_rows()))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Result solutions={len(self.results)} engine={self._statistics.engine!r}>"
