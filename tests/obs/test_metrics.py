"""Unit tests for the metrics registry and the query-to-metrics translation."""

import threading

import pytest

from repro.distributed.network import ShipmentSnapshot
from repro.distributed.stats import QueryStatistics, StageStats
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, record_query


class TestPrimitives:
    def test_counter_accumulates_and_rejects_negative_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_sets_and_adjusts_in_both_directions(self):
        gauge = Gauge()
        gauge.set(4)
        gauge.inc(-1.5)
        assert gauge.value == 2.5

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 2.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(3.05)
        assert histogram.cumulative_counts() == [(0.1, 1), (1.0, 3), (float("inf"), 4)]

    def test_histogram_boundary_observation_lands_in_its_bucket(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        histogram.observe(0.1)  # le="0.1" includes 0.1 itself
        assert histogram.cumulative_counts()[0] == (0.1, 1)

    def test_concurrent_counter_increments_lose_nothing(self):
        counter = Counter()
        threads = [
            threading.Thread(target=lambda: [counter.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


class TestRegistry:
    def test_same_name_and_labels_return_the_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_messages_total", stage="assembly")
        b = registry.counter("repro_messages_total", stage="assembly")
        other = registry.counter("repro_messages_total", stage="planning")
        assert a is b
        assert a is not other

    def test_reusing_a_family_name_with_another_type_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_queries_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("repro_queries_total")

    def test_snapshot_renders_label_strings_and_histogram_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c", "help me", stage="assembly").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c"]["type"] == "counter"
        assert snapshot["c"]["help"] == "help me"
        assert snapshot["c"]["series"] == {"stage=assembly": 3}
        series = snapshot["h"]["series"][""]
        assert series["count"] == 1
        assert series["sum"] == 0.5
        assert series["buckets"] == [[1.0, 1], [float("inf"), 1]]

    def test_prometheus_text_has_help_type_and_bucket_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_queries_total", "Queries.", engine="gstored").inc()
        registry.histogram("repro_stage_seconds", "Seconds.", stage="assembly").observe(0.02)
        text = registry.prometheus_text()
        assert "# HELP repro_queries_total Queries." in text
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{engine="gstored"} 1' in text
        assert '# TYPE repro_stage_seconds histogram' in text
        assert 'repro_stage_seconds_bucket{stage="assembly",le="0.05"} 1' in text
        assert 'repro_stage_seconds_bucket{stage="assembly",le="+Inf"} 1' in text
        assert 'repro_stage_seconds_count{stage="assembly"} 1' in text
        assert text.endswith("\n")

    def test_reset_drops_every_family(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {}


def make_statistics():
    stats = QueryStatistics(query_name="LQ1", engine="gStoreD", dataset="LUBM")
    planning = StageStats(name="planning")
    planning.counters["plan_cache_hit"] = 1
    evaluation = StageStats(name="partial_evaluation", shipped_bytes=128, messages=4)
    evaluation.site_times_s.update({0: 0.01, 1: 0.02})
    stats.stages.extend([planning, evaluation])
    stats.work["search_steps"] = 42
    return stats


class TestRecordQuery:
    def test_record_query_feeds_the_documented_families(self):
        registry = MetricsRegistry()
        shipment = ShipmentSnapshot(
            total_bytes=128,
            total_messages=4,
            bytes_by_stage={"partial_evaluation": 128},
            messages_by_stage={"partial_evaluation": 4},
            bytes_by_kind={"local_matches": 128},
        )
        record_query(
            registry,
            make_statistics(),
            shipment=shipment,
            engine="gStoreD",
            encoded_rebuilds=2,
        )
        snapshot = registry.snapshot()
        assert snapshot["repro_queries_total"]["series"] == {"engine=gStoreD": 1}
        assert snapshot["repro_plan_cache_hits_total"]["series"][""] == 1
        assert snapshot["repro_plan_cache_misses_total"]["series"][""] == 0
        assert snapshot["repro_search_steps_total"]["series"][""] == 42
        assert snapshot["repro_shipped_bytes_total"]["series"]["stage=partial_evaluation"] == 128
        assert snapshot["repro_messages_total"]["series"]["stage=partial_evaluation"] == 4
        assert snapshot["repro_site_tasks_total"]["series"]["stage=partial_evaluation"] == 2
        assert snapshot["repro_stage_seconds"]["series"]["stage=partial_evaluation"]["count"] == 1
        assert snapshot["repro_shipped_bytes_by_kind_total"]["series"]["kind=local_matches"] == 128
        assert snapshot["repro_encoded_graph_rebuilds"]["series"][""] == 2

    def test_plan_cache_and_search_step_families_exist_even_when_unplanned(self):
        """Star-shortcut queries never plan; scrapes must still see the families."""
        registry = MetricsRegistry()
        stats = QueryStatistics(query_name="LQ2", engine="gStoreD", dataset="LUBM")
        stats.stages.append(StageStats(name="partial_evaluation"))
        record_query(registry, stats, engine="gStoreD")
        snapshot = registry.snapshot()
        assert snapshot["repro_plan_cache_hits_total"]["series"][""] == 0
        assert snapshot["repro_plan_cache_misses_total"]["series"][""] == 0
        assert snapshot["repro_search_steps_total"]["series"][""] == 0

    def test_a_cache_miss_increments_the_miss_counter(self):
        registry = MetricsRegistry()
        stats = QueryStatistics(query_name="LQ1", engine="gStoreD", dataset="LUBM")
        planning = StageStats(name="planning")
        planning.counters["plan_cache_hit"] = 0
        stats.stages.append(planning)
        record_query(registry, stats, engine="gStoreD")
        snapshot = registry.snapshot()
        assert snapshot["repro_plan_cache_hits_total"]["series"][""] == 0
        assert snapshot["repro_plan_cache_misses_total"]["series"][""] == 1

    def test_accumulates_across_queries(self):
        registry = MetricsRegistry()
        record_query(registry, make_statistics(), engine="gStoreD")
        record_query(registry, make_statistics(), engine="gStoreD")
        snapshot = registry.snapshot()
        assert snapshot["repro_queries_total"]["series"] == {"engine=gStoreD": 2}
        assert snapshot["repro_search_steps_total"]["series"][""] == 84
        assert snapshot["repro_stage_seconds"]["series"]["stage=partial_evaluation"]["count"] == 2
