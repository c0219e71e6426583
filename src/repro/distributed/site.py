"""A site of the simulated cluster.

Each site hosts exactly one fragment (the paper's simplifying assumption).
It keeps two things: one :class:`~repro.store.encoding.EncodedGraph` of the
fragment's edges (sorted columns over the cluster's dictionary, which every
probe reads) and one :class:`~repro.store.fragment_index.FragmentIndex` over
that encoding, which is the fragment: Definition 1 over ids.  A local
:class:`~repro.store.TripleStore` wraps the encoding for matching and
planning; its planner statistics read the encoding's columns.  All of it
is built once, in the constructor, from id triples, and patched in place by
:meth:`Site.apply`.
Sites expose the local operations the engines need —
candidate computation, local BGP evaluation — but they never look at other
fragments: any cross-site information must arrive through the message bus.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..planner.optimizer import QueryPlanner
from ..planner.statistics import GraphStatistics
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import ResultSet
from ..sparql.query_graph import QueryGraph
from ..store.encoding import EncodedGraph, IdTriple, TermDictionary
from ..store.fragment_index import CandidateIds, FragmentIndex, internal_pools
from ..store.triple_store import TripleStore


class Site:
    """One machine of the simulated cluster, hosting one fragment."""

    def __init__(
        self,
        site_id: int,
        triples: Iterable[IdTriple],
        dictionary: TermDictionary,
        home: Mapping[int, int],
    ) -> None:
        """``triples`` are the fragment's edges (``E_i ∪ Ec_i``) as distinct id
        triples of the cluster's ``dictionary``; ``home``, the cluster's vertex
        → fragment assignment."""
        self.site_id = site_id
        #: The sorted columns of the fragment's edges over the cluster dictionary: every probe reads these.
        self.encoded = EncodedGraph.from_ids(triples, dictionary)
        #: Definition 1 over the encoding's ids — the fragment itself, and what
        #: partial evaluation reads (``PartialEvaluator(site.fragment, graph=site.graph)``).
        self.fragment = self.graph = FragmentIndex(site_id, self.encoded, home)
        self.store = TripleStore(self.encoded, name=self.fragment.name)
        #: Serializes site-task handler runs (:func:`repro.exec.run_site_task`):
        #: handlers read work counters off the store after evaluating, so two
        #: concurrent queries on this site would interleave them.
        #: :meth:`apply` patches the site in place and keeps this lock.
        self.lock = threading.RLock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"S{self.site_id}"

    # ------------------------------------------------------------------
    # Planner support
    # ------------------------------------------------------------------
    def graph_statistics(self) -> GraphStatistics:
        """This fragment's planner statistics: the view of its encoding's columns."""
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
        baselines.  The coordinator keeps an answer's distinct rows, so under a
        LIMIT repeats go before the cut, lest one take an answer row's place.
        """
        if query.limit is not None:
            query = replace(query, distinct=True)
        return self.store.evaluate(query)

    def internal_candidates(self, query: QueryGraph) -> CandidateIds:
        """Internal candidates ``C(Q, v)`` of every query vertex (Section VI).

        For an internal vertex every incident query edge must be locally
        supported (all its data edges are present in the fragment); edges are
        never relaxed here.  Values are id sets of the site's encoding, from
        pools this query's stage 2 reuses.
        """
        return internal_pools(self.graph, query)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, ops: Sequence[Tuple[str, IdTriple]], home: Mapping[int, int]) -> None:
        """Patch the site in place for its window of effective ``(op, (s, p, o))`` id ops.

        In order: the encoding (which drops the pools it made stale; the
        statistics read its columns) and the fragment index (against the live
        ``home`` assignment).  Each result equals a fresh build over the
        mutated fragment and the cluster dictionary, which already holds the
        window's new terms.
        """
        self.encoded.apply_ops(ops)
        self.graph.patch(ops, home)

    def stats(self) -> Dict[str, int]:
        index = self.graph
        return {
            "internal_vertices": len(index.internal),
            "extended_vertices": len(index.extended),
            "internal_edges": self.encoded.num_triples - len(index.crossing),
            "crossing_edges": len(index.crossing),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Site {self.name} fragment={self.fragment.name} triples={len(self.store)}>"
