"""Distributed execution substrate: sites, message bus, cluster, statistics,
and the execution spine (:class:`Run` / :class:`Stage`) every evaluator runs on."""

from .cluster import AppliedDelta, Cluster, build_cluster
from .network import (
    COORDINATOR,
    GRAPH_BSP_PLATFORM,
    MAPREDUCE_PLATFORM,
    Message,
    MessageBus,
    NATIVE_PLATFORM,
    NetworkModel,
    PlatformModel,
    SPARK_SQL_PLATFORM,
    ShipmentLedger,
    ShipmentSnapshot,
    StageTimer,
    estimate_size,
)
from .result import Result
from .run import Run, Stage
from .site import Site
from .stats import QueryStatistics, StageStats, aggregate_graph_statistics

__all__ = [
    "AppliedDelta",
    "COORDINATOR",
    "Cluster",
    "GRAPH_BSP_PLATFORM",
    "MAPREDUCE_PLATFORM",
    "Message",
    "MessageBus",
    "NATIVE_PLATFORM",
    "NetworkModel",
    "PlatformModel",
    "QueryStatistics",
    "Result",
    "Run",
    "SPARK_SQL_PLATFORM",
    "ShipmentLedger",
    "ShipmentSnapshot",
    "Site",
    "Stage",
    "StageStats",
    "StageTimer",
    "aggregate_graph_statistics",
    "build_cluster",
    "estimate_size",
]
