"""Tests for the :mod:`repro.api` engine protocol and registry."""

import pytest

import repro
from repro import EngineConfig, GStoreDEngine
from repro.api import (
    STAGE_CENTRALIZED,
    CentralizedEngine,
    EngineSpec,
    QueryEngine,
    Result,
    engine_names,
    engine_specs,
    make_engine,
    register_engine,
    resolve_engine_name,
)
from repro.api.engines import _ALIASES, _REGISTRY
from repro.baselines import CliqueSquareEngine, DreamEngine, S2RDFEngine, S2XEngine
from repro.datasets.paper_example import (
    build_example_partitioning,
    example_query,
)
from repro.distributed import build_cluster

ALL_ENGINES = ("centralized", "cloud", "decomp", "dream", "gstored", "s2x")


@pytest.fixture()
def cluster():
    return build_cluster(build_example_partitioning())


class TestRegistry:
    def test_engine_names_cover_all_five_evaluator_families(self):
        assert engine_names() == ALL_ENGINES

    def test_specs_are_sorted_and_summarized(self):
        specs = engine_specs()
        assert tuple(spec.name for spec in specs) == ALL_ENGINES
        assert all(spec.summary for spec in specs)

    @pytest.mark.parametrize(
        ("alias", "canonical"),
        [
            ("DREAM", "dream"),
            ("CliqueSquare", "decomp"),
            ("S2RDF", "cloud"),
            ("S2X", "s2x"),
            ("central", "centralized"),
            ("GStored", "gstored"),
            ("  gstored  ", "gstored"),
        ],
    )
    def test_aliases_resolve_case_insensitively(self, alias, canonical):
        assert resolve_engine_name(alias) == canonical

    def test_engine_spec_and_aliases_expose_the_registry(self):
        from repro.api import engine_aliases, engine_spec

        assert engine_spec("DREAM").name == "dream"
        assert engine_spec("gstored").accepts_config is True
        assert engine_aliases()["s2rdf"] == "cloud"
        assert engine_aliases()["cliquesquare"] == "decomp"

    def test_unknown_engine_error_enumerates_choices(self, cluster):
        with pytest.raises(ValueError) as excinfo:
            make_engine("sparql-over-carrier-pigeon", cluster)
        message = str(excinfo.value)
        for name in ALL_ENGINES:
            assert name in message

    def test_config_rejected_for_fixed_strategy_engines(self, cluster):
        with pytest.raises(ValueError) as excinfo:
            make_engine("dream", cluster, config=EngineConfig.full())
        assert "EngineConfig" in str(excinfo.value)
        assert "gstored" in str(excinfo.value)

    def test_engines_take_no_backend(self, cluster):
        """Site tasks run through one in-process runner: nothing to inject."""
        with pytest.raises(TypeError, match="backend"):
            make_engine("gstored", cluster, backend=repro.SerialBackend())
        with pytest.raises(TypeError, match="backend"):
            GStoreDEngine(cluster, backend=repro.SerialBackend())

    @pytest.mark.parametrize(
        ("name", "engine_type"),
        [
            ("dream", DreamEngine),
            ("decomp", CliqueSquareEngine),
            ("cloud", S2RDFEngine),
            ("s2x", S2XEngine),
            ("gstored", GStoreDEngine),
            ("centralized", CentralizedEngine),
        ],
    )
    def test_factories_build_the_engines_themselves(self, cluster, name, engine_type):
        with make_engine(name, cluster) as engine:
            assert type(engine) is engine_type

    def test_every_registry_engine_satisfies_the_protocol(self, cluster):
        for name in engine_names():
            with make_engine(name, cluster) as engine:
                assert isinstance(engine, QueryEngine)
                result = engine.execute(example_query(), query_name=name)
                assert isinstance(result, Result)
                assert result.statistics.query_name == name


class TestCentralizedEngine:
    def test_records_a_single_timed_stage(self, cluster):
        with CentralizedEngine(cluster) as engine:
            result = engine.execute(example_query(), query_name="example", dataset="paper")
        stats = result.statistics
        assert stats.engine == "Centralized"
        assert [stage.name for stage in stats.stages] == [STAGE_CENTRALIZED]
        assert stats.total_shipment_bytes == 0
        assert stats.num_results == len(result) == 4

    def test_matcher_is_cached_across_queries_and_dropped_on_close(self, cluster):
        engine = CentralizedEngine(cluster)
        engine.execute(example_query())
        first = engine._matcher
        engine.execute(example_query())
        assert engine._matcher is first
        engine.close()
        assert engine._matcher is None


class TestContextManagers:
    """Engines are context managers."""

    def test_baselines_support_with_blocks(self, cluster):
        with DreamEngine(cluster) as engine:
            assert len(engine.execute(example_query()).results) == 4


class TestThirdPartyEngines:
    """Engines registered from outside are held to the one ``execute`` contract."""

    class _PreContractEngine:
        name = "pre-contract"

        def __init__(self, cluster):
            self.inner = CentralizedEngine(cluster)

        def execute(self, query, query_name="", dataset=""):
            return self.inner.execute(query, query_name=query_name, dataset=dataset)

        def close(self):
            self.inner.close()

    @pytest.fixture()
    def registered(self):
        register_engine(
            EngineSpec(
                name="pre-contract",
                summary="test double without trace/profiler",
                factory=lambda cluster, config: self._PreContractEngine(cluster),
            )
        )
        yield "pre-contract"
        _REGISTRY.pop("pre-contract", None)
        _ALIASES.pop("pre-contract", None)

    def test_engine_without_trace_and_profiler_fails_at_its_first_traced_query(self, registered):
        """Not a silently empty trace: a TypeError that names the contract."""
        with repro.open(dataset="paper", trace=True) as session:
            with pytest.raises(TypeError) as excinfo:
                session.query("example", engine=registered)
        message = str(excinfo.value)
        assert "'pre-contract'" in message and "_PreContractEngine" in message
        assert "trace=None, profiler=None" in message

    def test_keyword_catch_all_satisfies_the_contract(self, cluster):
        class _Forwarding(self._PreContractEngine):
            def execute(self, query, **options):
                return self.inner.execute(query, **options)

        register_engine(
            EngineSpec(
                name="forwarding",
                summary="test double forwarding **options",
                factory=lambda cluster, config: _Forwarding(cluster),
            )
        )
        try:
            engine = make_engine("forwarding", cluster)
            assert len(engine.execute(example_query(), trace=repro.Trace("query"))) == 4
        finally:
            _REGISTRY.pop("forwarding", None)
            _ALIASES.pop("forwarding", None)
