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
from ..obs import record_statistics_spans
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

        The baselines model fixed strategies without per-stage coordinator
        hooks, so they cannot measure spans inline the way the gStoreD
        pipeline does; instead the finished statistics (which every baseline
        does produce, per stage and per site) are replayed into ``trace`` as
        ``synthesized=True`` spans — here and nowhere else.  ``profiler`` is
        accepted for the uniform contract and ignored.
        """
        del profiler
        run = Run.start(self.name, self.cluster, query, query_name, dataset)
        solutions = ResultSet(self._evaluate(run), query.variables)
        result = run.result(solutions.project(query.effective_projection).rows)
        if trace is not None:
            record_statistics_spans(trace, result.statistics)
        return result

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
