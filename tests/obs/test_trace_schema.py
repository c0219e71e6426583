"""Chrome trace-event schema validation for real traced executions.

The CI ``obs-smoke`` job and ``repro query --trace`` both rely on
:func:`repro.obs.validate_chrome_trace`; this module pins (a) that the
validator accepts what a traced execution actually produces, and (b)
that it rejects documents Perfetto could not load.
"""

import json

import pytest

from repro.core import GStoreDEngine
from repro.datasets import get_dataset
from repro.obs import (
    CATEGORY_COORDINATOR,
    CATEGORY_STAGE,
    CATEGORY_TASK,
    Trace,
    validate_chrome_trace,
)


def traced_run(cluster):
    query = get_dataset("LUBM").queries()["LQ1"]
    trace = Trace("query", engine="gstored")
    result = GStoreDEngine(cluster).execute(query, trace=trace)
    trace.finish(rows=len(result.results))
    return trace


class TestRealTracesValidate:
    def test_serial_backend_trace_round_trips_through_json(self, lubm_cluster, tmp_path):
        trace = traced_run(lubm_cluster)
        path = tmp_path / "trace.json"
        trace.save(str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        events = validate_chrome_trace(payload)
        names = {event["name"] for event in events}
        assert "query" in names
        assert "plan" in names
        assert any(name.startswith("stage:") for name in names)
        assert any(name.startswith("site:") for name in names)
        # Site tasks render on their own named tracks.
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        track_names = {e["args"]["name"] for e in metadata}
        assert "coordinator" in track_names
        assert any(name.startswith("site ") for name in track_names)
        task_events = [e for e in events if e["cat"] == CATEGORY_TASK]
        assert len(task_events) >= lubm_cluster.num_sites
        root = next(e for e in events if e["name"] == "query")
        for event in task_events:
            assert event["ts"] >= root["ts"]

    def test_stage_spans_carry_shipment_attrs(self, lubm_cluster):
        trace = traced_run(lubm_cluster)
        stage_spans = trace.find_spans(category=CATEGORY_STAGE)
        assert stage_spans
        for span in stage_spans:
            assert "shipped_bytes" in span.attrs
            assert "messages" in span.attrs


class TestCoordinatorSpans:
    """Both coordinator joins sit under a ``coordinator`` child span of their
    stage span, carrying the join's counters — so a stage span's time is not
    an unexplained gap above its site task spans."""

    def test_each_join_has_a_coordinator_span_under_its_stage(self, lubm_cluster):
        query = get_dataset("LUBM").queries()["LQ1"]
        trace = Trace("query")
        with GStoreDEngine(lubm_cluster) as engine:
            result = engine.execute(query, trace=trace)
        trace.finish()
        spans = trace.find_spans(category=CATEGORY_COORDINATOR)
        by_id = {span.span_id: span for span in trace.find_spans()}
        assert [by_id[span.parent_id].name for span in spans] == ["stage:lec_pruning", "stage:assembly"]
        for span in spans:
            parent = by_id[span.parent_id]
            stage = result.statistics.find_stage(parent.name.removeprefix("stage:"))
            assert span.name == "coordinator"
            assert span.attrs["join_attempts"] == stage.counters["join_attempts"] > 0
            assert span.attrs["groups"] > 0
            assert span.attrs["index_size"] > 0
            assert parent.start_s <= span.start_s
            assert span.start_s + span.duration_s <= parent.start_s + parent.duration_s
        validate_chrome_trace(trace.to_chrome())

    def test_star_queries_run_no_coordinator_join(self, lubm_cluster):
        query = get_dataset("LUBM").queries()["LQ2"]
        trace = Trace("query")
        with GStoreDEngine(lubm_cluster) as engine:
            engine.execute(query, trace=trace)
        assert trace.find_spans(category=CATEGORY_COORDINATOR) == []


class TestValidatorRejections:
    def test_rejects_non_objects_and_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace([])
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ValueError, match="non-empty"):
            validate_chrome_trace({"traceEvents": []})

    def test_rejects_unsupported_phases(self):
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "B", "name": "x", "pid": 1, "tid": 0}]}
            )

    def test_rejects_missing_names_and_non_integer_ids(self):
        with pytest.raises(ValueError, match="'name'"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "", "pid": 1, "tid": 0}]}
            )
        with pytest.raises(ValueError, match="'pid'"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": "1", "tid": 0}]}
            )

    def test_rejects_negative_timestamps_and_missing_args(self):
        event = {"ph": "X", "name": "x", "cat": "stage", "pid": 1, "tid": 0, "ts": -1, "dur": 0, "args": {}}
        with pytest.raises(ValueError, match="'ts'"):
            validate_chrome_trace({"traceEvents": [event]})
        event = {"ph": "X", "name": "x", "cat": "stage", "pid": 1, "tid": 0, "ts": 0, "dur": 0}
        with pytest.raises(ValueError, match="'args'"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_rejects_metadata_only_documents(self):
        with pytest.raises(ValueError, match="no complete"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "M", "name": "thread_name", "pid": 1, "tid": 0}]}
            )
