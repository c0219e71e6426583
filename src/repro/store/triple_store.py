"""Local triple store facade ("gStore-lite").

Each site of the simulated cluster hosts one :class:`TripleStore`, which
bundles the fragment's RDF graph with a matcher, planner statistics and
cached per-query candidate computations.  The centralized baseline uses the
same class over the unpartitioned graph, so every engine in the repository
shares one local-evaluation code path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from ..planner.optimizer import QueryPlanner
from ..planner.plan_cache import DEFAULT_PLAN_CACHE_SIZE
from ..planner.statistics import (
    GraphStatistics,
    apply_statistics_ops,
    collect_statistics,
)
from ..rdf.graph import RDFGraph
from ..rdf.terms import Node, PatternTerm
from ..rdf.triples import Triple
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import ResultSet
from ..sparql.query_graph import QueryGraph
from .candidates import compute_candidates
from .encoding import EncodedGraph, encoded_view
from .matcher import LocalMatcher


class TripleStore:
    """An indexed, queryable triple store over one RDF graph."""

    def __init__(
        self,
        graph: Optional[RDFGraph] = None,
        name: str = "",
        use_planner: bool = False,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    ) -> None:
        self._graph = graph if graph is not None else RDFGraph(name=name)
        if name:
            self._graph.name = name
        self._matcher: Optional[LocalMatcher] = None
        self._statistics: Optional[GraphStatistics] = None
        self._use_planner = use_planner
        self._plan_cache_size = plan_cache_size
        self._planner: Optional[QueryPlanner] = None
        # Graph version the cached statistics reflect (see _sync).
        self._stats_version = self._graph.version

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @property
    def graph(self) -> RDFGraph:
        return self._graph

    @property
    def name(self) -> str:
        return self._graph.name

    def load(self, triples: Iterable[Triple]) -> int:
        """Bulk-load triples; derived indexes resync lazily on next use."""
        return self._graph.add_all(triples)

    def add(self, triple: Triple) -> bool:
        return self._graph.add(triple)

    def discard(self, triple: Triple) -> bool:
        """Remove ``triple`` if present; indexes resync lazily on next use."""
        return self._graph.discard(triple)

    def _sync(self) -> None:
        """Bring the cached statistics (and plan cache) up to the graph.

        The encoded view and its sorted columns maintain themselves against
        :attr:`RDFGraph.version`; statistics are this store's to keep.  A
        contiguous journal window is patched in place (exact — see
        :func:`repro.planner.statistics.apply_statistics_ops`), a gap falls
        back to a fresh collection copied into the *same* object so the
        planner and optimizer, which hold a reference to it, see the update.
        Either way the plan cache is cleared: cached orders were chosen
        against the old statistics.
        """
        if self._statistics is None or self._stats_version == self._graph.version:
            return
        ops = self._graph.journal_since(self._stats_version)
        if ops is not None:
            apply_statistics_ops(self._statistics, self._graph, ops)
        else:
            self._statistics.replace_with(collect_statistics(self._graph))
        self._stats_version = self._graph.version
        if self._planner is not None:
            self._planner.cache.clear()

    def __len__(self) -> int:
        return len(self._graph)

    # ------------------------------------------------------------------
    # Index access
    # ------------------------------------------------------------------
    @property
    def encoded(self) -> EncodedGraph:
        """The dictionary-encoded view the matching kernel runs on.

        Cached per graph *version* (see :func:`repro.store.encoded_view`),
        so it survives ``_invalidate`` untouched and rebuilds itself lazily
        only when the underlying graph has actually changed.
        """
        return encoded_view(self._graph)

    @property
    def statistics(self) -> GraphStatistics:
        """Planner statistics for this store's graph (computed once, lazily,
        then patched incrementally as the graph mutates)."""
        if self._statistics is None:
            self._statistics = collect_statistics(self._graph)
            self._stats_version = self._graph.version
        else:
            self._sync()
        return self._statistics

    def preload_statistics(self, statistics: GraphStatistics) -> None:
        """Adopt previously collected statistics for the graph's current state.

        Used by the persistence layer to skip the collection pass when a
        store file already carries the summary.  The caller asserts that
        ``statistics`` describes the graph exactly as it stands now.
        """
        self._statistics = statistics
        self._stats_version = self._graph.version
        if self._planner is not None:
            self._planner = None
            self._matcher = None

    @property
    def planner(self) -> Optional[QueryPlanner]:
        """The store's query planner, or ``None`` while planning is disabled."""
        if not self._use_planner:
            return None
        if self._planner is None:
            self._planner = QueryPlanner(self.statistics, cache_size=self._plan_cache_size)
        else:
            self._sync()
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
            self._matcher = LocalMatcher(self._graph, planner=self.planner)
        else:
            # The matcher's graph and encoded view self-maintain against
            # the graph version; the statistics behind its planner are ours
            # to refresh (and stale plan-cache entries to drop).
            self._sync()
        return self._matcher

    # ------------------------------------------------------------------
    # Query evaluation
    # ------------------------------------------------------------------
    def evaluate(self, query: SelectQuery) -> ResultSet:
        """Evaluate a full SPARQL BGP query over this store's graph."""
        return self.matcher.evaluate(query)

    def find_matches(self, query: QueryGraph):
        """Yield complete vertex assignments of ``query`` over this store's graph."""
        return self.matcher.find_matches(query)

    def candidates(
        self,
        query: QueryGraph,
        relaxed_edges: Optional[Dict[PatternTerm, Set[int]]] = None,
    ) -> Dict[PatternTerm, Set[Node]]:
        """Per-query-vertex candidates over this store's graph."""
        return compute_candidates(self._graph, query, relaxed_edges=relaxed_edges)

    def stats(self) -> Dict[str, int]:
        return self._graph.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<TripleStore {self._graph.name!r} triples={len(self._graph)}>"
