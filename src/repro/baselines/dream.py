"""DREAM-like baseline: full replication plus star decomposition.

DREAM (Hammoud et al., PVLDB 2015) takes the opposite trade-off from
partitioning systems: every site stores a copy of the *entire* dataset, so
no intermediate data ever needs to be recomputed remotely; only the results
of subqueries travel.  Its planner decomposes the input query into star
subqueries, assigns each star to one site, evaluates each star over that
site's full local copy, and joins the star results at the coordinator.

This captures the behaviour the paper observes in Fig. 12:

* on selective queries and small datasets DREAM is very fast (each star is
  answered by a single machine with full data locality), but
* complex queries decompose into large, unselective stars whose intermediate
  results are huge, making the final join and its data shipment expensive.

The simulation gives each site a full-graph store (mirroring the replication)
and reuses the shared star decomposition and hash-join helpers.
"""

from __future__ import annotations

from typing import List

from ..distributed.cluster import Cluster
from ..distributed.network import COORDINATOR
from ..distributed.run import Run
from ..sparql.bindings import Binding
from ..store.triple_store import TripleStore
from .base import DistributedEngine
from .decomposition import (
    decompose_into_stars,
    estimate_bindings_size,
    join_all,
    subquery,
)

STAGE_SUBQUERIES = "subquery_evaluation"
STAGE_JOIN = "result_join"


class DreamEngine(DistributedEngine):
    """Simulated DREAM: replicate everything, ship only subquery results."""

    name = "DREAM"

    def __init__(self, cluster: Cluster) -> None:
        super().__init__(cluster)
        # Every site holds the entire RDF graph; build the replicated store
        # once and share the (immutable) indexes between the simulated sites.
        self._replicated_store = TripleStore(cluster.graph.copy(), name="dream-replica")

    def _evaluate(self, run: Run) -> List[Binding]:
        star_results: List[List[Binding]] = []
        with run.stage(STAGE_SUBQUERIES) as stage:
            stars = decompose_into_stars(run.query.bgp)
            stage.count(star_subqueries=len(stars))
            for index, star in enumerate(stars):
                site_id = index % max(1, self.cluster.num_sites)
                with stage.measure(site_id):
                    solutions = list(self._replicated_store.evaluate(subquery(star)))
                star_results.append(solutions)
                stage.ship(site_id, COORDINATOR, "star_results", solutions)
                stage.count(intermediate_results=len(solutions))
        with run.stage(STAGE_JOIN) as stage:
            with stage.measure():
                joined = join_all(star_results)
            stage.count(joined_results=len(joined))
        return joined
