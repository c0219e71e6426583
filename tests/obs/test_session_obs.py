"""Session-level observability: ``repro.open(..., trace=True)``, metrics,
profiling, and the lifetime of a result's statistics."""

import pytest

import repro
from repro.baselines import cloud
from repro.distributed import COORDINATOR, ShipmentSnapshot
from repro.distributed.run import Stage
from repro.obs import CATEGORY_STAGE, CATEGORY_TASK, validate_chrome_trace

QUERY = (
    "PREFIX ex: <http://example.org/> "
    "SELECT ?p2 ?l WHERE { ?t ex:label ?l . ?p1 ex:influencedBy ?p2 . "
    '?p2 ex:mainInterest ?t . ?p1 ex:name "Crispin Wright"@en . }'
)

#: Metric families record_query always feeds for a gStoreD query.
EXPECTED_FAMILIES = (
    "repro_queries_total",
    "repro_plan_cache_hits_total",
    "repro_plan_cache_misses_total",
    "repro_search_steps_total",
    "repro_shipped_bytes_total",
    "repro_messages_total",
    "repro_site_tasks_total",
    "repro_stage_seconds",
    "repro_encoded_graph_rebuilds",
    "repro_encoded_graph_patches",
)


class TestTracedSessions:
    def test_results_carry_a_validating_trace(self):
        with repro.open(dataset="paper", trace=True) as session:
            result = session.query(QUERY)
            assert result.trace is not None
            assert result.trace.root.attrs["rows"] == len(result)
            validate_chrome_trace(result.trace.to_chrome())
            names = {span.name for span in result.trace.spans}
            assert "parse" in names
            assert "plan" in names
            assert any(name.startswith("stage:") for name in names)
            assert session.tracer.last is result.trace

    def test_untraced_sessions_attach_no_trace(self):
        with repro.open(dataset="paper") as session:
            result = session.query(QUERY)
            assert result.trace is None
            assert session.tracer is None

    def test_each_query_gets_its_own_trace(self):
        with repro.open(dataset="paper", trace=True) as session:
            first = session.query(QUERY)
            second = session.query("example")
            assert first.trace is not second.trace
            assert len(session.tracer) == 2

    def test_a_baseline_s_stage_span_is_measured_around_its_work(self, monkeypatch):
        """A timestamp taken inside the first stage lies within its span."""
        with repro.open(dataset="paper", trace=True) as session:
            inside = []
            scan = cloud._scan

            def timed_scan(site, pattern):
                inside.append(session.tracer.last._now())
                return scan(site, pattern)

            monkeypatch.setattr(cloud, "_scan", timed_scan)
            result = session.query(QUERY, engine="cloud")
        first = result.trace.find_spans(category=CATEGORY_STAGE)[0]
        assert first.name == f"stage:{cloud.STAGE_SCAN}" and inside
        assert all(first.start_s <= moment <= first.start_s + first.duration_s for moment in inside)
        validate_chrome_trace(result.trace.to_chrome())

    @pytest.mark.parametrize("engine", ["cloud", "decomp", "dream", "s2x"])
    def test_each_timed_site_block_of_a_baseline_gives_a_site_span(self, monkeypatch, engine):
        blocks = []
        measure = Stage.measure

        def counted(stage, site_id=COORDINATOR):
            if site_id != COORDINATOR:
                blocks.append((stage.name, site_id))
            return measure(stage, site_id)

        monkeypatch.setattr(Stage, "measure", counted)
        with repro.open(dataset="paper", trace=True) as session:
            result = session.query(QUERY, engine=engine)
        spans = result.trace.find_spans(category=CATEGORY_TASK)
        assert blocks and [(s.attrs["stage"], s.attrs["site_id"]) for s in spans] == blocks
        assert [s.name for s in spans] == [f"site:{site_id}" for _, site_id in blocks]
        assert not any("synthesized" in span.attrs for span in result.trace.spans)

    def test_centralized_engine_traces_its_single_stage(self):
        with repro.open(dataset="paper", trace=True) as session:
            result = session.query(QUERY, engine="centralized")
            stage_names = [s.name for s in result.trace.find_spans(category=CATEGORY_STAGE)]
            assert stage_names == ["stage:centralized_evaluation"]

    def test_traced_and_untraced_answers_match(self):
        with repro.open(dataset="paper") as plain, repro.open(dataset="paper", trace=True) as traced:
            baseline = plain.query(QUERY)
            observed = traced.query(QUERY)
            assert observed.same_solutions(baseline)
            assert observed.statistics.total_shipment_bytes == baseline.statistics.total_shipment_bytes


class TestSessionMetrics:
    def test_metrics_registry_is_always_on(self):
        with repro.open(dataset="paper") as session:
            session.query(QUERY)
            snapshot = session.metrics.snapshot()
            for family in EXPECTED_FAMILIES:
                assert family in snapshot, family
            assert snapshot["repro_queries_total"]["series"] == {"engine=gStoreD": 1}

    def test_prometheus_exposition_is_scrapable(self):
        with repro.open(dataset="paper") as session:
            session.query(QUERY)
            text = session.metrics.prometheus_text()
            assert "# TYPE repro_stage_seconds histogram" in text
            assert "repro_stage_seconds_bucket" in text
            assert 'le="+Inf"' in text
            assert "# TYPE repro_queries_total counter" in text

    def test_metrics_accumulate_across_engines(self):
        with repro.open(dataset="paper") as session:
            session.query(QUERY)
            session.query(QUERY, engine="centralized")
            series = session.metrics.snapshot()["repro_queries_total"]["series"]
            assert series == {"engine=Centralized": 1, "engine=gStoreD": 1}


class TestSessionProfiling:
    def test_profile_true_captures_stage_profiles(self):
        with repro.open(dataset="paper", profile=True) as session:
            session.query(QUERY)
            assert session.profiler is not None
            assert session.profiler.stages
            assert "=== stage:" in session.profiler.reports()

    def test_profiling_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        with repro.open(dataset="paper") as session:
            assert session.profiler is None

    @pytest.mark.parametrize(
        "value, enabled",
        [
            ("1", True), ("true", True), ("YES", True), (" On ", True),
            ("", False), ("0", False), ("False", False), ("no", False), ("OFF", False),
            ("flase", None), ("2", None), ("enabled", None),
        ],
    )
    def test_profile_env_variable_accepts_only_switch_values(self, monkeypatch, value, enabled):
        monkeypatch.setenv("REPRO_PROFILE", value)
        if enabled is None:
            with pytest.raises(ValueError, match="REPRO_PROFILE") as excinfo:
                repro.open(dataset="paper")
            assert "true" in str(excinfo.value) and "off" in str(excinfo.value)
            return
        with repro.open(dataset="paper") as session:
            assert (session.profiler is not None) is enabled

    def test_profile_env_variable_enables_it(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        with repro.open(dataset="paper") as session:
            assert session.profiler is not None


class TestResultStatisticsLifetime:
    """A returned Result's numbers must survive the next query (regression:
    stage stats used to alias live engine/cluster state that ``query()``
    resets, zeroing a prior result's timings and shipment)."""

    def test_statistics_survive_a_later_query(self):
        with repro.open(dataset="paper") as session:
            first = session.query(QUERY)
            frozen_row = dict(first.statistics.as_row())
            frozen_stages = [dict(stage.as_dict()) for stage in first.statistics.stages]
            assert first.statistics.total_shipment_bytes > 0
            session.query("example")
            session.query(QUERY, engine="dream")
            assert first.statistics.as_row() == frozen_row
            assert [dict(stage.as_dict()) for stage in first.statistics.stages] == frozen_stages
            assert first.statistics.total_shipment_bytes > 0

    def test_shipment_snapshot_survives_a_later_query(self):
        with repro.open(dataset="paper") as session:
            first = session.query(QUERY)
            assert isinstance(first.shipment, ShipmentSnapshot)
            total = first.shipment.total_bytes
            assert total == first.statistics.total_shipment_bytes
            session.query("example")
            assert first.shipment.total_bytes == total


class TestTracedEquivalence:
    def test_a_traced_session_agrees_with_an_untraced_one(self):
        with repro.open(dataset="paper") as reference_session:
            reference = reference_session.query(QUERY)
        with repro.open(dataset="paper", trace=True) as session:
            result = session.query(QUERY)
            assert result.same_solutions(reference)
            assert result.statistics.total_shipment_bytes == reference.statistics.total_shipment_bytes
            assert result.trace.find_spans(category=CATEGORY_TASK)
            validate_chrome_trace(result.trace.to_chrome())
