"""Local triple store facade ("gStore-lite").

Each site of the simulated cluster hosts one :class:`TripleStore` over its
fragment's :class:`~repro.store.encoding.EncodedGraph`, bundling a matcher,
the planner statistics (a view that reads the encoding's columns) and an
optional planner.  The site patches the encoding itself; the statistics
read the patched columns.
"""

from __future__ import annotations

from typing import Optional

from ..planner.optimizer import QueryPlanner
from ..planner.plan_cache import DEFAULT_PLAN_CACHE_SIZE
from ..planner.statistics import GraphStatistics, collect_statistics
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import ResultSet
from ..sparql.query_graph import QueryGraph
from .encoding import EncodedGraph
from .matcher import LocalMatcher


class TripleStore:
    """A queryable triple store over one encoded graph."""

    def __init__(
        self,
        encoded: EncodedGraph,
        name: str = "",
        use_planner: bool = False,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    ) -> None:
        self._encoded = encoded
        self._name = name
        self._matcher: Optional[LocalMatcher] = None
        self._statistics = collect_statistics(encoded)
        self._use_planner = use_planner
        self._plan_cache_size = plan_cache_size
        self._planner: Optional[QueryPlanner] = None

    @property
    def encoded(self) -> EncodedGraph:
        """The dictionary-encoded graph the matching kernel runs on."""
        return self._encoded

    @property
    def name(self) -> str:
        return self._name

    def __len__(self) -> int:
        return self._encoded.num_triples

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def statistics(self) -> GraphStatistics:
        """Planner statistics: the view of the encoding's columns, so an update
        that patches them is what the planner reads next.  The plan cache keeps
        its plans: each is keyed by the statistics it read, so none chosen
        against the old columns is served."""
        return self._statistics

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    @property
    def planner(self) -> Optional[QueryPlanner]:
        """The store's query planner, or ``None`` while planning is disabled."""
        if not self._use_planner:
            return None
        if self._planner is None:
            self._planner = QueryPlanner(self.statistics, cache_size=self._plan_cache_size)
        return self._planner

    def enable_planner(self, plan_cache_size: Optional[int] = None) -> QueryPlanner:
        """Turn on cost-based planning for this store's matcher."""
        if plan_cache_size is not None and plan_cache_size != self._plan_cache_size:
            self._plan_cache_size = plan_cache_size
            self._planner = None
            self._matcher = None
        if not self._use_planner:
            self._use_planner = True
            self._matcher = None
        planner = self.planner
        assert planner is not None
        return planner

    def disable_planner(self) -> None:
        """Fall back to the static traversal order.

        The planner object (and its warm plan cache) is kept so a later
        ``enable_planner`` resumes where it left off; only the matcher stops
        consulting it.
        """
        if self._use_planner:
            self._use_planner = False
            self._matcher = None

    @property
    def matcher(self) -> LocalMatcher:
        if self._matcher is None:
            self._matcher = LocalMatcher(self._encoded, planner=self.planner)
        return self._matcher

    # ------------------------------------------------------------------
    # Query evaluation
    # ------------------------------------------------------------------
    def evaluate(self, query: SelectQuery) -> ResultSet:
        """Evaluate a full SPARQL BGP query over this store's encoding."""
        return self.matcher.evaluate(query)

    def find_matches(self, query: QueryGraph):
        """Yield complete vertex assignments of ``query`` over this store's encoding."""
        return self.matcher.find_matches(query)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<TripleStore {self._name!r} triples={len(self)}>"
