"""Unit tests for the tracing core: spans, nesting, site spans."""

import pytest

from repro.bench import stage_shipment_snapshot
from repro.core import GStoreDEngine
from repro.datasets import get_dataset
from repro.obs import (
    CATEGORY_PLANNING,
    CATEGORY_QUERY,
    CATEGORY_STAGE,
    CATEGORY_TASK,
    StageProfiler,
    Trace,
    Tracer,
    stage_scope,
)
from repro.obs.trace import COORDINATOR_TRACK, SITE_TRACK_OFFSET


class TestSpanTree:
    def test_root_span_carries_the_trace_name_and_attrs(self):
        trace = Trace("query", engine="gstored")
        assert trace.root.name == "query"
        assert trace.root.category == CATEGORY_QUERY
        assert trace.root.attrs == {"engine": "gstored"}

    def test_spans_nest_under_the_innermost_open_span(self):
        trace = Trace("query")
        with trace.span("plan", CATEGORY_PLANNING) as plan:
            with trace.span("probe", CATEGORY_PLANNING) as probe:
                pass
        assert plan.parent_id == trace.root.span_id
        assert probe.parent_id == plan.span_id
        assert trace.children(plan) == [probe]

    def test_closing_a_span_records_a_duration(self):
        trace = Trace("query")
        with trace.span("stage:planning") as span:
            assert span.duration_s == 0.0
        assert span.duration_s >= 0.0
        assert span.start_s >= 0.0

    def test_event_is_a_zero_duration_marker_that_does_not_stay_open(self):
        trace = Trace("query")
        marker = trace.event("plan_cache", hit=True)
        assert marker.duration_s == 0.0
        assert marker.attrs == {"hit": True}
        # The next span is a sibling, not a child, of the marker.
        with trace.span("stage:assembly") as span:
            pass
        assert span.parent_id == trace.root.span_id

    def test_set_overwrites_and_extends_attrs(self):
        trace = Trace("query")
        with trace.span("stage:assembly", shipped_bytes=0) as span:
            span.set(shipped_bytes=12, messages=3)
        assert span.attrs == {"shipped_bytes": 12, "messages": 3}

    def test_find_spans_filters_by_category_and_name(self):
        trace = Trace("query")
        with trace.span("plan", CATEGORY_PLANNING):
            pass
        with trace.span("stage:assembly", CATEGORY_STAGE):
            pass
        assert [s.name for s in trace.find_spans(category=CATEGORY_PLANNING)] == ["plan"]
        assert [s.name for s in trace.find_spans(name="stage:assembly")] == ["stage:assembly"]
        assert len(trace.find_spans()) == 3  # root + the two above

    def test_finish_is_idempotent_and_closes_the_root(self):
        trace = Trace("query")
        trace.finish(rows=7)
        first_duration = trace.duration_s
        trace.finish(rows=7)
        assert trace.duration_s == first_duration
        assert trace.root.attrs["rows"] == 7


class TestSiteSpans:
    def test_a_site_span_nests_under_its_parent_on_the_site_track(self):
        trace = Trace("query")
        with trace.span("stage:partial_evaluation") as stage:
            pass
        span = trace.add_site_span(stage, 2, "engine.partial_eval", stage.start_s, 0.5)
        assert span.parent_id == stage.span_id
        assert span.name == "site:2"
        assert span.category == CATEGORY_TASK
        assert span.track == SITE_TRACK_OFFSET + 2
        assert span.attrs == {"site_id": 2, "stage": "engine.partial_eval"}
        assert (span.start_s, span.duration_s) == (stage.start_s, 0.5)
        assert trace.children(stage) == [span]

    @pytest.mark.parametrize("query_name", ["LQ1", "LQ2"])  # general pipeline + star shortcut
    def test_engine_site_spans_carry_the_runner_measured_times(self, lubm_cluster, query_name):
        """Each stage's site spans lie inside the stage span, and per site
        their durations add up to the site time the stage's statistics
        recorded from the same runner measurement; the traced run answers
        and accounts exactly like an untraced one."""
        query = get_dataset("LUBM").queries()[query_name]
        engine = GStoreDEngine(lubm_cluster)
        engine.execute(query)  # warm the plan cache
        untraced = engine.execute(query)
        trace = Trace("query")
        traced = engine.execute(query, trace=trace)
        trace.finish()
        assert traced.results.to_table() == untraced.results.to_table()
        assert traced.statistics.work == untraced.statistics.work
        assert stage_shipment_snapshot(traced) == stage_shipment_snapshot(untraced)
        stages = {stage.name: stage for stage in traced.statistics.stages}
        checked = 0
        for stage_span in trace.find_spans(category=CATEGORY_STAGE):
            site_spans = [
                child for child in trace.children(stage_span) if child.category == CATEGORY_TASK
            ]
            end = stage_span.start_s + stage_span.duration_s
            totals = {}
            for span in site_spans:
                assert stage_span.start_s <= span.start_s
                assert span.start_s + span.duration_s <= end + 1e-9
                site_id = span.attrs["site_id"]
                totals[site_id] = totals.get(site_id, 0.0) + span.duration_s
            site_times = stages[stage_span.name.removeprefix("stage:")].site_times_s
            assert totals == pytest.approx(site_times)
            checked += len(site_spans)
        assert checked >= lubm_cluster.num_sites


class TestSummaryAndTracer:
    def test_summary_renders_an_indented_tree_with_attrs(self):
        trace = Trace("query")
        with trace.span("stage:assembly", shipped_bytes=42):
            pass
        trace.finish()
        summary = trace.summary()
        lines = summary.splitlines()
        assert lines[0].startswith("query (")
        assert any(line.startswith("  stage:assembly") for line in lines)
        assert "[shipped_bytes=42]" in summary

    def test_tracer_retains_traces_in_start_order(self):
        tracer = Tracer()
        assert tracer.last is None
        first = tracer.start_trace("query")
        second = tracer.start_trace("query")
        assert tracer.traces == [first, second]
        assert tracer.last is second
        assert len(tracer) == 2
        tracer.clear()
        assert len(tracer) == 0

    def test_trace_ids_are_unique(self):
        assert Trace("a").trace_id != Trace("a").trace_id


class TestStageScope:
    def test_with_everything_off_it_yields_none(self):
        with stage_scope(None, None, "assembly") as span:
            assert span is None

    def test_with_tracing_on_it_yields_the_open_stage_span(self):
        trace = Trace("query")
        with stage_scope(trace, None, "assembly", messages=0) as span:
            span.set(messages=5)
        assert span.name == "stage:assembly"
        assert span.category == CATEGORY_STAGE
        assert span.attrs["messages"] == 5

    def test_with_profiling_on_it_captures_the_stage(self):
        profiler = StageProfiler()
        with stage_scope(None, profiler, "assembly") as span:
            assert span is None
            sum(range(100))
        assert profiler.stages == ["assembly"]
        assert "function calls" in profiler.report("assembly")


class TestStageProfiler:
    def test_disabled_profiler_captures_nothing(self):
        profiler = StageProfiler(enabled=False)
        with profiler.capture("planning"):
            pass
        assert profiler.stages == []
        assert "no profile captured" in profiler.report("planning")
        assert profiler.reports() == "(no profiles captured)"

    def test_from_env_explicit_flag_wins(self):
        assert StageProfiler.from_env(False) is None
        assert StageProfiler.from_env(True).enabled

    def test_from_env_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert StageProfiler.from_env() is None
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert StageProfiler.from_env().enabled

    def test_profiles_accumulate_per_stage_across_captures(self):
        profiler = StageProfiler()
        for _ in range(2):
            with profiler.capture("assembly"):
                sorted(range(50))
        assert profiler.stages == ["assembly"]
        assert "=== stage: assembly ===" in profiler.reports()
