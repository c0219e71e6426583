"""Unit tests for the engine configuration / optimization levels."""

import pytest

from repro.core import ABLATION_CONFIGS, EngineConfig, OptimizationLevel


class TestNamedConfigs:
    def test_basic_disables_everything(self):
        config = EngineConfig.basic()
        assert not config.use_lec_assembly
        assert not config.use_lec_pruning
        assert not config.use_candidate_exchange
        assert config.level is OptimizationLevel.BASIC
        assert config.label == "gStoreD-Basic"

    def test_la_enables_only_assembly(self):
        config = EngineConfig.lec_assembly_only()
        assert config.use_lec_assembly
        assert not config.use_lec_pruning
        assert config.label == "gStoreD-LA"

    def test_lo_enables_assembly_and_pruning(self):
        config = EngineConfig.lec_optimized()
        assert config.use_lec_assembly and config.use_lec_pruning
        assert not config.use_candidate_exchange
        assert config.label == "gStoreD-LO"

    def test_full_enables_everything(self):
        config = EngineConfig.full()
        assert config.use_lec_assembly and config.use_lec_pruning and config.use_candidate_exchange
        assert config.label == "gStoreD"

    def test_for_level_roundtrip(self):
        for level in OptimizationLevel:
            assert EngineConfig.for_level(level).level is level

    def test_ablation_configs_order(self):
        labels = [config.label for config in ABLATION_CONFIGS]
        assert labels == ["gStoreD-Basic", "gStoreD-LA", "gStoreD-LO", "gStoreD"]


class TestOptions:
    def test_with_options_returns_modified_copy(self):
        config = EngineConfig.full()
        modified = config.with_options(star_shortcut=False)
        assert modified.star_shortcut is False
        assert config.star_shortcut is True

    def test_describe_contains_switches(self):
        description = EngineConfig.full().describe()
        assert description["label"] == "gStoreD"
        assert description["lec_pruning"] is True

    def test_default_is_full(self):
        assert EngineConfig().level is OptimizationLevel.FULL

    @pytest.mark.parametrize("width", [0, -8, 2.5, True])
    def test_with_options_rejects_a_width_no_vector_can_have(self, width):
        with pytest.raises(ValueError, match="bit_vector_bits"):
            EngineConfig.full().with_options(bit_vector_bits=width)

    @pytest.mark.parametrize("shards", [0, 2, 8])
    def test_a_site_evaluates_its_fragment_in_one_task(self, shards):
        with pytest.raises(ValueError, match="shards_per_site"):
            EngineConfig(shards_per_site=shards)
        with pytest.raises(ValueError, match="shards_per_site"):
            EngineConfig.full().with_options(shards_per_site=shards)
