"""Common interface of every comparison system.

The online-performance experiment (Fig. 12) compares gStoreD against four
publicly available distributed RDF systems.  Those systems are JVM / Spark /
MPI codebases; what the comparison needs from them is their *query-processing
strategy* — how they decompose queries, where intermediate results are
produced and how much data moves — so each baseline here re-implements that
strategy over the same simulated :class:`~repro.distributed.Cluster` the
gStoreD engine runs on, through the same run object and stage runner
(:mod:`repro.distributed.run`).  Every baseline returns the standard
:class:`~repro.distributed.Result`, so correctness can be checked against
the centralized matcher and costs can be tabulated uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

from ..distributed.cluster import Cluster
from ..distributed.network import NATIVE_PLATFORM, PlatformModel
from ..distributed.result import Result
from ..distributed.run import Run, Stage
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import Binding, ResultSet


class DistributedEngine(ABC):
    """Abstract base class of gStoreD's comparison systems."""

    #: Name used in reports and figures.
    name: str = "abstract"
    #: Execution-platform overhead model: native engines (DREAM) pay nothing,
    #: cloud engines (Spark/Hadoop/GraphX) pay a per-distributed-stage cost.
    platform: PlatformModel = NATIVE_PLATFORM

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster

    def execute(
        self,
        query: SelectQuery,
        query_name: str = "",
        dataset: str = "",
        *,
        trace=None,
        profiler=None,
    ) -> Result:
        """Evaluate ``query`` and return its solutions plus statistics.

        ``trace`` and ``profiler`` go to the run, so every stage records its
        measured span (with a ``site:{id}`` span per timed site block) and
        profile the way the gStoreD pipeline's stages do.
        """
        run = Run.start(
            self.name, self.cluster, query, query_name, dataset, trace=trace, profiler=profiler
        )
        solutions = ResultSet(self._evaluate(run), query.variables)
        return run.result(solutions.project(query.effective_projection).rows)

    @abstractmethod
    def _evaluate(self, run: Run) -> List[Binding]:
        """The strategy itself: its stages over ``run``, returning all solutions."""

    def _charge_platform(self, stage: Stage, platform_stages: int) -> None:
        """Add the platform's modelled overhead for that many of its stages."""
        stage.stats.platform_time_s += self.platform.stage_cost(platform_stages)

    def close(self) -> None:
        """Release engine resources (baselines hold none; kept for the
        uniform :class:`~repro.api.QueryEngine` lifecycle)."""

    def __enter__(self) -> "DistributedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
