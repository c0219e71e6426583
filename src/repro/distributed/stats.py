"""Per-query execution statistics.

The paper's Tables I–III report, for every benchmark query, the time and
data shipment of each stage of the pipeline plus intermediate/final result
counts.  :class:`StageStats` records one stage and :class:`QueryStatistics`
aggregates a whole query execution; the benchmark harness renders them into
the same table rows as the paper.

"Time" in the simulation has two flavours:

* ``parallel_time_s`` — the maximum per-site wall-clock time of a stage (the
  sites run in parallel in the real system), plus coordinator time, and
* ``total_cpu_time_s`` — the sum over all sites (useful to understand the
  total work done).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class StageStats:
    """Timing, shipment and counters for one pipeline stage."""

    name: str
    site_times_s: Dict[int, float] = field(default_factory=dict)
    coordinator_time_s: float = 0.0
    #: Modelled time spent moving this stage's messages over the network
    #: (computed from the cluster's :class:`~repro.distributed.NetworkModel`).
    network_time_s: float = 0.0
    #: Modelled platform overhead (cloud job scheduling / shuffles); zero for
    #: the native engines.
    platform_time_s: float = 0.0
    shipped_bytes: int = 0
    messages: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    def record_site_time(self, site_id: int, seconds: float) -> None:
        self.site_times_s[site_id] = self.site_times_s.get(site_id, 0.0) + seconds

    def add_counter(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @property
    def parallel_time_s(self) -> float:
        """Site work runs in parallel: max over sites, plus coordinator work,
        plus the modelled network-transfer and platform overheads."""
        slowest_site = max(self.site_times_s.values(), default=0.0)
        return slowest_site + self.coordinator_time_s + self.network_time_s + self.platform_time_s

    @property
    def total_cpu_time_s(self) -> float:
        return sum(self.site_times_s.values()) + self.coordinator_time_s

    @property
    def parallel_time_ms(self) -> float:
        return self.parallel_time_s * 1000.0

    @property
    def shipped_kb(self) -> float:
        return self.shipped_bytes / 1024.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "stage": self.name,
            "time_ms": round(self.parallel_time_ms, 3),
            "cpu_time_ms": round(self.total_cpu_time_s * 1000.0, 3),
            "shipment_kb": round(self.shipped_kb, 3),
            "messages": self.messages,
            **self.counters,
        }


@dataclass
class QueryStatistics:
    """All stages of one query execution plus result-level counters."""

    query_name: str = ""
    engine: str = ""
    dataset: str = ""
    partitioning: str = ""
    stages: List[StageStats] = field(default_factory=list)
    num_results: int = 0
    extra: Dict[str, object] = field(default_factory=dict)
    #: Work counters that are *not* table columns (``as_row`` excludes them):
    #: deterministic work measures like the matcher's total ``search_steps``
    #: across sites, consumed by the observability layer and equivalence
    #: tests rather than the paper's table renderer.
    work: Dict[str, int] = field(default_factory=dict)

    def stage(self, name: str) -> StageStats:
        """Get (or lazily create) the stage named ``name``."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        stage = StageStats(name)
        self.stages.append(stage)
        return stage

    def find_stage(self, name: str) -> Optional[StageStats]:
        return next((stage for stage in self.stages if stage.name == name), None)

    @property
    def total_time_s(self) -> float:
        """End-to-end response time: the stages run one after another."""
        return sum(stage.parallel_time_s for stage in self.stages)

    @property
    def total_time_ms(self) -> float:
        return self.total_time_s * 1000.0

    @property
    def total_shipment_bytes(self) -> int:
        return sum(stage.shipped_bytes for stage in self.stages)

    @property
    def total_shipment_kb(self) -> float:
        return self.total_shipment_bytes / 1024.0

    def counter(self, stage_name: str, counter_name: str, default: int = 0) -> int:
        stage = self.find_stage(stage_name)
        if stage is None:
            return default
        return stage.counters.get(counter_name, default)

    def as_row(self) -> Dict[str, object]:
        """Flatten into a single report row (used by the benchmark tables)."""
        row: Dict[str, object] = {
            "query": self.query_name,
            "engine": self.engine,
            "dataset": self.dataset,
            "partitioning": self.partitioning,
            "total_time_ms": round(self.total_time_ms, 3),
            "total_shipment_kb": round(self.total_shipment_kb, 3),
            "results": self.num_results,
        }
        for stage in self.stages:
            prefix = stage.name
            row[f"{prefix}_time_ms"] = round(stage.parallel_time_ms, 3)
            row[f"{prefix}_shipment_kb"] = round(stage.shipped_kb, 3)
            for counter, value in stage.counters.items():
                row[f"{prefix}_{counter}"] = value
        row.update(self.extra)
        return row

