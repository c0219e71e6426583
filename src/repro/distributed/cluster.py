"""Cluster: the set of sites plus the coordinator-side bookkeeping.

A :class:`Cluster` is built over ids: the one
:class:`~repro.store.encoding.TermDictionary` every encoding uses, each
fragment's edges as id triples — one site per fragment — and the live vertex
→ fragment assignment.  :func:`build_cluster` encodes a
:class:`~repro.partition.PartitionedGraph` into that form once, and a store
file (:meth:`~repro.persist.ClusterStore.load_cluster`) feeds its int tables
straight in; neither the partitioning nor its graph is kept.  The cluster
owns the :class:`MessageBus` that every engine uses to account for data
shipment.  It is engine-agnostic: the gStoreD engine (``repro.core.engine``)
and the baselines (``repro.baselines``) all execute on top of the same
cluster object, so comparisons happen over identical data placement.

Each edge lives once per site that stores it, as columns of that site's
encoding; there is no master graph.  The master encoding (the whole graph's
columns, read by ``centralized`` and ``dream``) is built on first use from
each site's home edges, and :attr:`Cluster.graph` /
:attr:`Cluster.partitioned_graph` are decoded copies built per call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..partition.delta import stable_fragment_of
from ..partition.fragment import PartitionedGraph
from ..planner.optimizer import QueryPlanner
from ..planner.plan_cache import DEFAULT_PLAN_CACHE_SIZE
from ..planner.statistics import GraphStatistics
from ..rdf.graph import RDFGraph
from ..rdf.terms import Node
from ..rdf.triples import Triple
from ..store.encoding import EncodedGraph, IdTriple, TermDictionary
from .network import MessageBus, NetworkModel
from .site import Site


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

    def __init__(
        self,
        dictionary: TermDictionary,
        assignment: Dict[int, int],
        fragments: Sequence[Iterable[IdTriple]],
        *,
        name: str = "",
        strategy: str = "custom",
        network: Optional[NetworkModel] = None,
    ) -> None:
        """``fragments[k]`` are fragment ``k``'s edges (``E_k ∪ Ec_k``) as
        distinct id triples of ``dictionary``; ``assignment`` maps every vertex
        id to its fragment and is kept (updates extend it)."""
        #: The one dictionary: base terms in ``term_sort_key`` order, new terms appended.
        self.dictionary = dictionary
        self._assignment = assignment
        #: Name of the graph the cluster hosts.
        self.name = name
        #: Name of the partitioning strategy that placed the vertices.
        self.strategy = strategy
        self._sites: List[Site] = [
            Site(site_id, triples, dictionary, assignment) for site_id, triples in enumerate(fragments)
        ]
        self._encoded: Optional[EncodedGraph] = None
        self._encoded_lock = threading.Lock()
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
    def _home_edges(self) -> Iterator[IdTriple]:
        """Every edge once, as id triples: each site's edges whose subject is internal to it."""
        for site in self._sites:
            internal = site.graph.internal
            yield from (ids for ids in site.encoded.iter_triple_ids() if ids[0] in internal)

    @property
    def graph(self) -> RDFGraph:
        """The full RDF graph, decoded from the sites: a copy built per call.

        Mutating it changes nothing in the cluster; :meth:`apply` does.
        """
        term_of = self.dictionary.term_of
        triples = (Triple(term_of(s), term_of(p), term_of(o)) for s, p, o in self._home_edges())
        return RDFGraph(triples, name=self.name)

    @property
    def partitioned_graph(self) -> PartitionedGraph:
        """The Definition 1 partitioning over :attr:`graph`, decoded: a copy built per call."""
        term_of = self.dictionary.term_of
        return PartitionedGraph(
            self.graph,
            {term_of(vertex): home for vertex, home in self._assignment.items()},
            self.num_sites,
            self.strategy,
        )

    @property
    def encoded(self) -> EncodedGraph:
        """The master encoding: the full graph's columns over :attr:`dictionary`.

        Built on first use (``centralized`` and ``dream`` read it) from the
        sites' home edges, and patched by :meth:`apply_ops` once it exists.
        The ids are the dictionary's, so when it is built does not change them.
        """
        with self._encoded_lock:
            if self._encoded is None:
                self._encoded = EncodedGraph.from_ids(self._home_edges(), self.dictionary)
            return self._encoded

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
        return self._sites[self._assignment[self.dictionary.id_of(vertex)]]

    def graph_statistics(self) -> GraphStatistics:
        """Cluster-wide planner statistics (the coordinator's global view of the
        data distribution): every count summed over the sites' encodings, in
        ``site_id`` order."""
        return GraphStatistics([site.encoded for site in self._sites])

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
        removing an absent one) are skipped.  Each effective op's terms new to
        the cluster get the next dictionary ids, in effective-op order, and
        the op goes to the sites of its endpoints' homes.  Homes are sticky:
        a vertex keeps its fragment for life, and a new vertex joins the home
        of its first triple's other endpoint when that is assigned (the
        subject is assigned first), else :func:`stable_fragment_of` its N3
        text.  Each touched site then patches itself once with its window
        (:meth:`Site.apply`), and so does the master encoding if built.  So
        the ids and the placement are a pure function of (base state, op
        sequence).  A replica replaying the same ops from the same base — a
        reopened store file — therefore reaches the bit-identical dictionary
        and encodings, which is what keeps answers, match sequences and
        shipment fingerprints stable across restarts.

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

        Whether an op is effective is one probe of the subject's home site,
        which stores every edge of its internal vertices (a term the
        dictionary lacks is in no triple); ``window`` holds the state of each
        triple this call already changed, since the sites are patched only
        once the whole sequence is routed.
        """
        get = self.dictionary.get
        assignment = self._assignment
        window: Dict[Triple, bool] = {}
        effective: List[Tuple[str, Triple]] = []
        id_ops: List[Tuple[str, IdTriple]] = []
        site_ops: Dict[int, List[Tuple[str, IdTriple]]] = {}
        for op, triple in ops:
            adding = op == "+"
            present = window.get(triple)
            if present is None:
                s, p, o = get(triple.subject), get(triple.predicate), get(triple.object)
                home = assignment.get(s)
                present = home is not None and None not in (p, o) and self._sites[home].encoded.has_edge(s, p, o)
            if present == adding:
                continue
            window[triple] = adding
            ids = self.dictionary.ensure_triple(triple)
            s, _, o = ids
            if adding:
                homes = {self._home(s, o), self._home(o, s)}
            else:
                homes = {assignment[s], assignment[o]}
            for home in homes:
                site_ops.setdefault(home, []).append((op, ids))
            effective.append((op, triple))
            id_ops.append((op, ids))
        if not effective:
            return AppliedDelta(0, 0)
        if self._encoded is not None:
            self._encoded.apply_ops(id_ops)
        for site in self._sites:
            if site.site_id in site_ops:
                site.apply(site_ops[site.site_id], assignment)
        if self._store is not None:
            try:
                self._store.append_ops(effective)
            except BaseException as error:
                # The in-memory apply above already landed, but the journal
                # rolled back: the live cluster is now *ahead* of the store,
                # and a reopened store will not replay these ops.  Flag the
                # divergence on the exception so the caller can re-snapshot
                # (ClusterStore.create(..., overwrite=True)) or discard the
                # live state instead of silently serving unjournaled data.
                error.add_note(
                    f"cluster/store divergence: {len(effective)} applied op(s) "
                    f"were not journaled to {getattr(self._store, 'path', self._store)!s}; "
                    "the store is behind the live cluster until re-snapshotted"
                )
                raise
        added = sum(op == "+" for op, _ in effective)
        return AppliedDelta(added, len(effective) - added)

    def _home(self, vertex: int, partner: int) -> int:
        """``vertex``'s fragment, assigning a new vertex to ``partner``'s (or its stable hash)."""
        home = self._assignment.get(vertex)
        if home is None:
            home = self._assignment.get(partner)
            if home is None:
                home = stable_fragment_of(self.dictionary.term_of(vertex), self.num_sites)
            self._assignment[vertex] = home
        return home

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        sizes = [site.encoded.num_triples for site in self._sites]
        # A crossing edge is stored at both of its endpoints' homes.
        crossing = sum(len(site.graph.crossing) for site in self._sites) // 2
        return {
            "sites": self.num_sites,
            "strategy": self.strategy,
            "fragments": self.num_sites,
            "triples": sum(sizes) - crossing,
            "crossing_edges": crossing,
            "largest_fragment_edges": max(sizes, default=0),
            "smallest_fragment_edges": min(sizes, default=0),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Cluster sites={self.num_sites} strategy={self.strategy!r}>"


def build_cluster(partitioned: PartitionedGraph, network: Optional[NetworkModel] = None) -> Cluster:
    """The cluster of ``partitioned``: its terms and placement encoded once.

    The dictionary holds every term of the graph and every assigned vertex;
    each site is built from its fragment's edges as ids, one fragment at a
    time.  The cluster keeps no reference to ``partitioned`` or its graph.
    """
    graph = partitioned.graph
    assignment = partitioned.assignment
    dictionary = TermDictionary(chain((term for triple in graph for term in triple.as_tuple()), assignment))
    id_of = dictionary.id_of

    def edges(fragment) -> Iterator[IdTriple]:
        for triple in chain(fragment.internal_edges, fragment.crossing_edges):
            yield (id_of(triple.subject), id_of(triple.predicate), id_of(triple.object))

    return Cluster(
        dictionary,
        {id_of(vertex): home for vertex, home in assignment.items()},
        [edges(fragment) for fragment in partitioned],
        name=graph.name,
        strategy=partitioned.strategy,
        network=network,
    )
