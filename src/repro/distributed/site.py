"""A site of the simulated cluster.

Each site hosts exactly one fragment (the paper's simplifying assumption) and
runs a local :class:`~repro.store.TripleStore` over it.  Sites expose the
local operations the engines need — candidate computation, local BGP
evaluation — but they never look at other fragments: any cross-site
information must arrive through the message bus.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Set

from ..partition.fragment import Fragment
from ..planner.optimizer import QueryPlanner
from ..planner.statistics import GraphStatistics
from ..rdf.graph import RDFGraph
from ..rdf.terms import Node
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import ResultSet
from ..sparql.query_graph import QueryGraph
from ..store.fragment_index import CandidateIds, internal_pools
from ..store.triple_store import TripleStore


class Site:
    """One machine of the simulated cluster, hosting one fragment."""

    def __init__(self, site_id: int, fragment: Fragment) -> None:
        self.site_id = site_id
        self.fragment = fragment
        self.store = TripleStore(fragment.to_graph(), name=fragment.name)
        #: Serializes site-task handler runs (:func:`repro.exec.run_site_task`):
        #: handlers read work counters off the store after evaluating, so two
        #: concurrent queries on this site would interleave them.  A rebuilt
        #: site is a new object with a fresh lock.
        self.lock = threading.RLock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"S{self.site_id}"

    @property
    def graph(self) -> RDFGraph:
        return self.store.graph

    @property
    def internal_vertices(self) -> Set[Node]:
        return self.fragment.internal_vertices

    @property
    def extended_vertices(self) -> Set[Node]:
        return self.fragment.extended_vertices

    def is_internal(self, vertex: Node) -> bool:
        return self.fragment.is_internal(vertex)

    # ------------------------------------------------------------------
    # Planner support
    # ------------------------------------------------------------------
    def graph_statistics(self) -> GraphStatistics:
        """This fragment's planner statistics (cached by the local store)."""
        return self.store.statistics

    @property
    def planner(self) -> Optional[QueryPlanner]:
        return self.store.planner

    def enable_planner(self, plan_cache_size: Optional[int] = None) -> QueryPlanner:
        """Turn on cost-based planning for this site's local evaluation."""
        return self.store.enable_planner(plan_cache_size)

    def disable_planner(self) -> None:
        """Fall back to the static traversal order for local evaluation."""
        self.store.disable_planner()

    # ------------------------------------------------------------------
    # Local operations used by the engines
    # ------------------------------------------------------------------
    def local_evaluate(self, query: SelectQuery) -> ResultSet:
        """Evaluate ``query`` entirely inside this fragment.

        Used for star queries (whose results are always contained in one
        fragment because crossing edges are replicated) and by several
        baselines.
        """
        return self.store.evaluate(query)

    def internal_candidates(self, query: QueryGraph) -> CandidateIds:
        """Internal candidates ``C(Q, v)`` of every query vertex (Section VI).

        For an internal vertex every incident query edge must be locally
        supported (all its data edges are present in the fragment); edges are
        never relaxed here.  Values are id sets of the site graph's encoded
        view, from pools this query's stage 2 reuses.
        """
        return internal_pools(self.fragment, self.graph, query)

    def stats(self) -> Dict[str, int]:
        return self.fragment.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Site {self.name} fragment={self.fragment.name} triples={len(self.store)}>"
