"""The one query result type: solutions plus the statistics of their run.

Every evaluator in the repository — the gStoreD engine, the four comparison
systems and the centralized ground truth — returns a :class:`Result` from
``execute()``.  It lives beside :class:`~repro.distributed.QueryStatistics`
so :mod:`repro.core` and :mod:`repro.baselines` can build one without
importing the session layer; :mod:`repro.api` re-exports it.

* solutions are iterated lazily (``for binding in result``) and rendered on
  demand — ``rows()`` / ``sorted_rows()`` / ``to_dicts()`` are computed the
  first time they are asked for and cached;
* the :class:`~repro.distributed.QueryStatistics` of the producing engine is
  always attached (centralized evaluation gets a single-stage statistics
  object), so cost reporting works identically for all six evaluators;
* equality helpers (:meth:`same_solutions`, ``==`` over sorted rows) give
  the equivalence tests one canonical comparison regardless of which engine
  produced which side.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from .stats import QueryStatistics
from ..sparql.bindings import Binding, ResultSet

#: What a :class:`Result` can be built from: an already-materialized result
#: set, or a zero-argument thunk evaluated on first access (lazy execution).
ResultSource = Union[ResultSet, Callable[[], ResultSet]]


class Result:
    """Solutions of one query plus the statistics of the run that produced them.

    The canonical row form is *sorted N3 text*: every binding becomes a tuple
    of ``variable=term`` strings sorted within the row, and
    :meth:`sorted_rows` sorts the rows themselves — two engines agree on a
    query exactly when their ``sorted_rows()`` are equal, independent of
    solution order, variable order, or which engine produced them.
    """

    def __init__(self, source: ResultSource, statistics: Optional[QueryStatistics] = None) -> None:
        self._source = source
        self._result_set: Optional[ResultSet] = None if callable(source) else source
        self._statistics = statistics if statistics is not None else QueryStatistics()
        self._rows: Optional[List[Tuple[str, ...]]] = None
        self._sorted_rows: Optional[List[Tuple[str, ...]]] = None
        self._dicts: Optional[List[Dict[str, str]]] = None
        #: The :class:`~repro.obs.Trace` of the producing run, when the
        #: session was opened with ``trace=True`` (``None`` otherwise).
        self.trace = None
        #: The :class:`~repro.distributed.ShipmentSnapshot` taken from the
        #: message bus right after the run, when produced through a
        #: :class:`~repro.api.Session` (``None`` otherwise).  Unlike the live
        #: bus, this survives the next query's ``reset_network()``.
        self.shipment = None
        #: ``True`` when the session served this result from its opt-in
        #: result cache (``repro.open(..., result_cache=N)``) instead of
        #: executing; the statistics then describe the run that populated
        #: the cache entry.
        self.cache_hit = False

    # ------------------------------------------------------------------
    # Lazy materialization
    # ------------------------------------------------------------------
    @property
    def results(self) -> ResultSet:
        """The underlying :class:`~repro.sparql.bindings.ResultSet`.

        Evaluates the deferred query on first access when the result was
        constructed lazily.
        """
        if self._result_set is None:
            self._result_set = self._source()  # type: ignore[operator]
        return self._result_set

    @property
    def statistics(self) -> QueryStatistics:
        """Per-stage timing, shipment and counters of the producing engine."""
        return self._statistics

    def detach_statistics(self) -> QueryStatistics:
        """Replace :attr:`statistics` with an independent deep copy.

        Engines may hand the result a statistics object that shares stage
        records with engine- or cluster-held state; after detaching, nothing
        a later query does (``Cluster.reset_network()``, engine reuse) can
        mutate this result's numbers.  The session layer calls this on every
        result it returns; returns the detached copy.
        """
        self._statistics = self._statistics.snapshot()
        return self._statistics

    @property
    def degraded(self) -> bool:
        """``True`` when the answers are partial because a site was lost.

        Set by the fault-injection layer (:mod:`repro.faults`): a site the
        fault plan marks unrecoverable takes its fragment's matches with it,
        and instead of failing the query the engine returns what the
        surviving sites can answer and flags it here.  A degraded result
        names the lost sites in :attr:`missing_sites` and is never stored in
        the session result cache.
        """
        return bool(self._statistics.extra.get("degraded", False))

    @property
    def missing_sites(self) -> List[int]:
        """Site ids lost unrecoverably during the run (empty when healthy)."""
        return list(self._statistics.extra.get("missing_sites", ()))

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
        state = "pending" if self._result_set is None else f"solutions={len(self._result_set)}"
        return f"<Result {state} engine={self._statistics.engine!r}>"
