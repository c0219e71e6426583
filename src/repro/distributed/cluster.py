"""Cluster: the set of sites plus the coordinator-side bookkeeping.

A :class:`Cluster` is built from a :class:`~repro.partition.PartitionedGraph`
— one site per fragment — and owns the :class:`MessageBus` that every engine
uses to account for data shipment.  The cluster itself is engine-agnostic:
the gStoreD engine (``repro.core.engine``) and the baselines
(``repro.baselines``) all execute on top of the same cluster object, so
comparisons happen over identical data placement.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..partition.delta import apply_delta_effect
from ..partition.fragment import PartitionedGraph
from ..planner.optimizer import QueryPlanner
from ..planner.plan_cache import DEFAULT_PLAN_CACHE_SIZE
from ..planner.statistics import GraphStatistics
from ..rdf.graph import RDFGraph
from ..rdf.terms import Node
from ..rdf.triples import Triple
from ..store.encoding import encoded_view, patch_encoded_view
from .network import MessageBus, NetworkModel
from .site import Site
from .stats import aggregate_graph_statistics


@dataclass(frozen=True)
class AppliedDelta:
    """Summary of one :meth:`Cluster.apply` call."""

    #: Triples that were actually inserted (not already present).
    added: int
    #: Triples that were actually deleted (present before the call).
    removed: int

    @property
    def total(self) -> int:
        return self.added + self.removed


class Cluster:
    """A simulated cluster hosting one partitioned RDF graph."""

    def __init__(self, partitioned: PartitionedGraph, network: Optional[NetworkModel] = None) -> None:
        self._partitioned = partitioned
        self._sites: List[Site] = [Site(fragment.fragment_id, fragment) for fragment in partitioned]
        self.bus = MessageBus()
        #: Cost model used by every engine to convert shipped bytes into time.
        self.network = network if network is not None else NetworkModel()
        self._coordinator_planner: Optional[QueryPlanner] = None
        self._planner_lock = threading.Lock()
        # Attached persistence backend (repro.persist.ClusterStore), if any.
        self._store = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def partitioned_graph(self) -> PartitionedGraph:
        return self._partitioned

    @property
    def graph(self) -> RDFGraph:
        """The full RDF graph (only used by ground-truth checks and baselines
        that replicate the whole dataset, such as DREAM)."""
        return self._partitioned.graph

    @property
    def sites(self) -> List[Site]:
        return list(self._sites)

    @property
    def num_sites(self) -> int:
        return len(self._sites)

    @property
    def site_ids(self) -> List[int]:
        return [site.site_id for site in self._sites]

    def site(self, site_id: int) -> Site:
        return self._sites[site_id]

    def __iter__(self) -> Iterator[Site]:
        return iter(self._sites)

    def __len__(self) -> int:
        return len(self._sites)

    def site_of_vertex(self, vertex: Node) -> Site:
        """The site whose fragment owns ``vertex`` as an internal vertex."""
        return self._sites[self._partitioned.fragment_of(vertex)]

    def rebuild_site(
        self,
        site_id: int,
        *,
        use_planner: bool = True,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    ) -> Site:
        """Replace a site with a fresh one rebuilt from its fragment.

        The fault-recovery path: when the coordinator detects a site death
        (:mod:`repro.faults`), it builds a brand-new
        :class:`~repro.distributed.Site` — fresh store, indexes and planner —
        over the dead site's fragment and swaps it into the cluster in place.
        The graph data itself is never lost (fragments are the durable
        unit), so the rebuilt site answers identically to the one it
        replaces.
        """
        position = next(
            (index for index, site in enumerate(self._sites) if site.site_id == site_id),
            None,
        )
        if position is None:
            known = ", ".join(str(sid) for sid in self.site_ids) or "none"
            raise LookupError(f"cluster has no site {site_id} (sites: {known})")
        fragment = self._sites[position].fragment
        site = Site(fragment.fragment_id, fragment)
        if use_planner:
            site.enable_planner(plan_cache_size)
        else:
            site.disable_planner()
        self._sites[position] = site
        return site

    def graph_statistics(self) -> GraphStatistics:
        """Cluster-wide planner statistics, aggregated from the per-site
        summaries (the coordinator's global view of the data distribution),
        merged in ``site_id`` order."""
        sites = sorted(self._sites, key=lambda site: site.site_id)
        return aggregate_graph_statistics(site.graph_statistics() for site in sites)

    def coordinator_planner(
        self,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    ) -> QueryPlanner:
        """The coordinator-side planner over the aggregated statistics.

        Owned by the cluster (not the engine) so its plan cache survives
        across queries and across engine instances — repeated query shapes
        skip optimization no matter how the caller drives the engine.  The
        lazy build is lock-guarded: concurrent queries on one session must
        share a single planner (and its cache), not race to build two.
        """
        with self._planner_lock:
            if (
                self._coordinator_planner is None
                or self._coordinator_planner.cache.maxsize != plan_cache_size
            ):
                self._coordinator_planner = QueryPlanner(
                    self.graph_statistics(), cache_size=plan_cache_size
                )
            return self._coordinator_planner

    # ------------------------------------------------------------------
    # Mutation (delta application)
    # ------------------------------------------------------------------
    @property
    def store(self):
        """The attached :class:`~repro.persist.ClusterStore`, or ``None``."""
        return self._store

    def attach_store(self, store) -> None:
        """Attach a persistence backend: subsequent :meth:`apply` calls are
        journaled to its write-ahead delta table."""
        self._store = store

    def apply(
        self,
        add: Iterable[Triple] = (),
        remove: Iterable[Triple] = (),
    ) -> AppliedDelta:
        """Apply a triple delta to the whole cluster, in place.

        Removals run first, then additions; no-ops (adding a present triple,
        removing an absent one) are skipped.  Every effective op is routed to
        its fragments by the sticky :class:`~repro.partition.delta.DeltaRouter`
        and folded into the master graph, the fragment vertex/edge sets and
        the site stores; the dictionary encodings are then *patched* eagerly
        (never rebuilt), so the resulting id assignment is a pure function of
        (base state, op sequence).  A replica replaying the same ops from the
        same base — a reopened store file — therefore reaches the
        bit-identical encoding, which is what keeps answers, match sequences
        and shipment fingerprints stable across restarts.

        Callers must not run queries concurrently with ``apply`` (the same
        contract as direct graph mutation; :meth:`Session.update
        <repro.api.Session.update>` enforces it with an exclusive writer
        gate).  With an attached store the effective ops are appended to its
        write-ahead delta table before this method returns.  If that append
        fails, the in-memory mutation has already happened while the store
        rolled back — the raised exception carries a note naming the
        divergence so the caller can re-snapshot or discard the store.
        """
        staged = [("-", triple) for triple in remove]
        staged.extend(("+", triple) for triple in add)
        return self.apply_ops(staged)

    def apply_ops(self, ops: Iterable[Tuple[str, Triple]]) -> AppliedDelta:
        """Apply an explicit ``("+"|"-", triple)`` sequence in order.

        The replay entry point: :meth:`apply` stages its arguments through
        here, and the persistence layer replays a store file's write-ahead
        delta table through here so a reopened cluster walks the exact same
        code path (and reaches the exact same state) as the live one did.
        """
        staged = list(ops)
        if not staged:
            return AppliedDelta(0, 0)
        graph = self.graph
        # Force every encoding *before* mutating: patching from a known
        # base state is what replicas replay against.
        master_encoded = encoded_view(graph)
        site_encoded = {
            site.site_id: encoded_view(site.store.graph) for site in self._sites
        }
        sites_by_id = {site.site_id: site for site in self._sites}
        router = self._partitioned.delta_router()
        master_ops: List[Tuple[str, Triple]] = []
        site_ops: Dict[int, List[Tuple[str, Triple]]] = {
            site.site_id: [] for site in self._sites
        }
        added = removed = 0
        for op, triple in staged:
            if op == "+":
                if not graph.add(triple):
                    continue
                added += 1
            else:
                if not graph.discard(triple):
                    continue
                removed += 1
            master_ops.append((op, triple))
            for effect in router.route(op, triple):
                site = sites_by_id[effect.fragment_id]
                if op == "+":
                    site.store.add(triple)
                else:
                    site.store.discard(triple)
                apply_delta_effect(site.fragment, effect, graph=site.store.graph)
                site_ops[effect.fragment_id].append((op, triple))
        if not master_ops:
            return AppliedDelta(0, 0)
        patch_encoded_view(graph, master_encoded, master_ops)
        for site in self._sites:
            ops_here = site_ops[site.site_id]
            if ops_here:
                patch_encoded_view(site.store.graph, site_encoded[site.site_id], ops_here)
        with self._planner_lock:
            if self._coordinator_planner is not None:
                statistics = self._coordinator_planner.statistics
                if statistics is not None:
                    statistics.replace_with(self.graph_statistics())
                # Cached orders were chosen against the old statistics.
                self._coordinator_planner.cache.clear()
        if self._store is not None:
            try:
                self._store.append_ops(master_ops)
            except BaseException as error:
                # The in-memory apply above already landed, but the journal
                # rolled back: the live cluster is now *ahead* of the store,
                # and a reopened store will not replay these ops.  Flag the
                # divergence on the exception so the caller can re-snapshot
                # (ClusterStore.create(..., overwrite=True)) or discard the
                # live state instead of silently serving unjournaled data.
                error.add_note(
                    f"cluster/store divergence: {len(master_ops)} applied op(s) "
                    f"were not journaled to {getattr(self._store, 'path', self._store)!s}; "
                    "the store is behind the live cluster until re-snapshotted"
                )
                raise
        return AppliedDelta(added, removed)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def reset_network(self) -> None:
        """Clear the bus's global message log between back-to-back runs.

        Stage timing needs no reset: every execution times itself on its own
        :class:`~repro.distributed.run.Run` and keeps only the copy in its
        statistics.
        """
        self.bus.reset()

    def stats(self) -> Dict[str, object]:
        return {
            "sites": self.num_sites,
            **self._partitioned.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Cluster sites={self.num_sites} strategy={self._partitioned.strategy!r}>"


def build_cluster(partitioned: PartitionedGraph, network: Optional[NetworkModel] = None) -> Cluster:
    """Convenience constructor mirroring ``build_partitioned_graph``."""
    return Cluster(partitioned, network=network)
