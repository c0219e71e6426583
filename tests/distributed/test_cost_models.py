"""Unit tests for the network and platform cost models."""

import pytest

from repro.core import EngineConfig, GStoreDEngine
from repro.datasets import lubm
from repro.distributed import (
    GRAPH_BSP_PLATFORM,
    MAPREDUCE_PLATFORM,
    NATIVE_PLATFORM,
    NetworkModel,
    PlatformModel,
    SPARK_SQL_PLATFORM,
    StageStats,
    build_cluster,
)
from repro.partition import HashPartitioner


class TestNetworkModel:
    def test_zero_traffic_costs_nothing(self):
        assert NetworkModel().transfer_time(0, 0) == 0.0

    def test_latency_scales_with_messages(self):
        model = NetworkModel(latency_s=0.001, bandwidth_bytes_per_s=1e9)
        assert model.transfer_time(0, 5) == pytest.approx(0.005)

    def test_bandwidth_scales_with_bytes(self):
        model = NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1000.0)
        assert model.transfer_time(2000, 0) == pytest.approx(2.0)

    def test_combined_charge(self):
        model = NetworkModel(latency_s=0.01, bandwidth_bytes_per_s=100.0)
        assert model.transfer_time(50, 2) == pytest.approx(0.02 + 0.5)

    def test_default_parameters_are_sane(self):
        model = NetworkModel()
        # 1 MB over the default network takes milliseconds, not seconds.
        assert 0 < model.transfer_time(1_000_000, 1) < 0.1


class TestPlatformModel:
    def test_native_platform_is_free(self):
        assert NATIVE_PLATFORM.stage_cost(10) == 0.0

    def test_cloud_platforms_charge_per_stage(self):
        assert SPARK_SQL_PLATFORM.stage_cost(2) == pytest.approx(0.1)
        assert MAPREDUCE_PLATFORM.stage_cost(1) > SPARK_SQL_PLATFORM.stage_cost(1)
        assert GRAPH_BSP_PLATFORM.stage_cost(3) == pytest.approx(0.09)

    def test_negative_stage_count_is_clamped(self):
        assert PlatformModel(0.5).stage_cost(-1) == 0.0


class TestStageTimeComposition:
    def test_network_and_platform_time_add_to_parallel_time(self):
        stage = StageStats("assembly")
        stage.record_site_time(0, 0.2)
        stage.coordinator_time_s = 0.1
        stage.network_time_s = 0.05
        stage.platform_time_s = 0.3
        assert stage.parallel_time_s == pytest.approx(0.65)
        # CPU time excludes modelled overheads.
        assert stage.total_cpu_time_s == pytest.approx(0.3)


class TestClusterNetworkConfiguration:
    def test_cluster_uses_custom_network_model(self):
        graph = lubm.generate(scale=1)
        partitioned = HashPartitioner(3).partition(graph)
        slow_network = NetworkModel(latency_s=0.05, bandwidth_bytes_per_s=10_000.0)
        fast_cluster = build_cluster(partitioned)
        slow_cluster = build_cluster(partitioned, network=slow_network)
        query = lubm.queries()["LQ1"]

        fast_result = GStoreDEngine(fast_cluster, EngineConfig.lec_optimized()).execute(query)
        slow_result = GStoreDEngine(slow_cluster, EngineConfig.lec_optimized()).execute(query)

        # Same answers, but the slow network makes the same shipment cost more time.
        assert fast_result.results.same_solutions(slow_result.results)
        assert slow_result.statistics.total_time_s > fast_result.statistics.total_time_s

    def test_engine_charges_network_time_on_shipping_stages(self):
        graph = lubm.generate(scale=1)
        cluster = build_cluster(HashPartitioner(3).partition(graph))
        result = GStoreDEngine(cluster, EngineConfig.full()).execute(lubm.queries()["LQ1"])
        pruning = result.statistics.find_stage("lec_pruning")
        assert pruning is not None
        assert pruning.network_time_s > 0
        assert pruning.platform_time_s == 0  # gStoreD is a native engine
