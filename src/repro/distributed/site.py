"""A site of the simulated cluster.

Each site hosts exactly one fragment (the paper's simplifying assumption) and
runs a local :class:`~repro.store.TripleStore` over it.  Sites expose the
local operations the engines need — candidate computation, local BGP
evaluation — but they never look at other fragments: any cross-site
information must arrive through the message bus.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..exec.tasks import register_site_task
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

    def local_evaluate_shard(self, query: SelectQuery, shard_index: int, num_shards: int):
        """One shard's slice of this fragment's local evaluation.

        Returns the shard's *raw* (projected, not yet DISTINCT or LIMITed)
        bindings: DISTINCT and LIMIT only commute with concatenation when
        applied over the complete stream, so the coordinator concatenates the
        shards in shard order and finalizes once
        (:func:`repro.store.finalize_matches`).
        """
        return self.store.shard_matches(query, shard_index, num_shards)

    def internal_candidates(self, query: QueryGraph) -> CandidateIds:
        """Internal candidates ``C(Q, v)`` of every query vertex (Section VI).

        For an internal vertex every incident query edge must be locally
        supported (all its data edges are present in the fragment); edges are
        never relaxed here.  Values are id sets of the site graph's encoded
        view, from pools this query's stage 2 reuses.
        """
        return internal_pools(self.fragment, self.graph, query, self.store.signatures)

    def stats(self) -> Dict[str, int]:
        return self.fragment.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Site {self.name} fragment={self.fragment.name} triples={len(self.store)}>"


#: Task name under which a site's planner-statistics summary is collected
#: (used by :meth:`repro.distributed.Cluster.graph_statistics`).
GRAPH_STATISTICS_TASK = "graph_statistics"


@register_site_task(GRAPH_STATISTICS_TASK)
def _graph_statistics_task(site: Site, payload) -> GraphStatistics:
    """Site task: summarize this site's fragment for the coordinator planner."""
    del payload  # the summary needs no inputs beyond the site itself
    return site.graph_statistics()
