"""Concurrency and consistency of the accounting primitives.

Concurrent queries record times and send messages from their own threads;
these tests pin that no sample is ever lost when several threads record at
once, that ``reset()`` gives each run a clean slate, and that the
per-stage/per-kind byte breakdowns agree with each other and with the
shipment attributes the tracing layer stamps onto stage spans.
"""

import threading

import pytest

from repro.core import GStoreDEngine
from repro.datasets import get_dataset
from repro.distributed.network import MessageBus, ShipmentSnapshot, StageTimer
from repro.obs import CATEGORY_STAGE, Trace


def run_in_threads(worker, thread_count=8):
    threads = [threading.Thread(target=worker, args=(index,)) for index in range(thread_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestStageTimerConcurrency:
    def test_concurrent_records_lose_no_samples(self):
        timer = StageTimer()
        samples_per_thread = 500

        def worker(site_id):
            for _ in range(samples_per_thread):
                timer.record("partial_evaluation", site_id, 0.001)

        run_in_threads(worker)
        times = timer.site_times("partial_evaluation")
        assert sorted(times) == list(range(8))
        for seconds in times.values():
            assert seconds == pytest.approx(samples_per_thread * 0.001)

    def test_concurrent_records_to_the_same_site_accumulate(self):
        timer = StageTimer()

        def worker(_):
            for _ in range(250):
                timer.record("assembly", 0, 0.002)

        run_in_threads(worker)
        assert timer.elapsed("assembly", 0) == pytest.approx(8 * 250 * 0.002)

    def test_reset_between_runs_forgets_everything(self):
        timer = StageTimer()
        timer.record("assembly", 0, 1.0)
        with timer.measure("assembly"):
            pass
        timer.reset()
        assert timer.elapsed("assembly", 0) == 0.0
        assert timer.site_times("assembly") == {}


class TestMessageBusConcurrency:
    def test_concurrent_sends_lose_no_messages(self):
        bus = MessageBus()
        sends_per_thread = 400

        def worker(site_id):
            for _ in range(sends_per_thread):
                bus.send(site_id, -1, "local_matches", "xxxx", stage="partial_evaluation")

        run_in_threads(worker)
        assert bus.total_messages == 8 * sends_per_thread
        assert bus.total_bytes == 8 * sends_per_thread * 4  # "xxxx" is 4 bytes
        assert bus.messages_for_stage("partial_evaluation") == 8 * sends_per_thread

    def test_reset_between_runs_clears_the_log(self):
        bus = MessageBus()
        bus.send(0, 1, "k", "payload", stage="assembly")
        bus.reset()
        assert bus.total_messages == 0
        assert bus.total_bytes == 0
        assert bus.snapshot() == ShipmentSnapshot(0, 0, {}, {}, {})

    def test_stage_and_kind_breakdowns_are_consistent(self):
        bus = MessageBus()
        bus.send(0, 1, "candidate_vectors", "aa", stage="candidate_exchange")
        bus.send(1, -1, "local_matches", "bbbb", stage="partial_evaluation")
        bus.send(2, -1, "local_matches", "cc", stage="partial_evaluation")
        snapshot = bus.snapshot()
        assert snapshot.total_bytes == bus.total_bytes
        assert snapshot.total_messages == bus.total_messages
        assert sum(snapshot.bytes_by_stage.values()) == snapshot.total_bytes
        assert sum(snapshot.bytes_by_kind.values()) == snapshot.total_bytes
        assert sum(snapshot.messages_by_stage.values()) == snapshot.total_messages
        for stage, size in snapshot.bytes_by_stage.items():
            assert bus.bytes_for_stage(stage) == size
        assert snapshot.bytes_by_kind == bus.bytes_by_kind()


class TestSpanAttributesMatchTheBus:
    """The shipment attrs on stage spans are the same numbers the bus and
    the statistics report — one accounting, three views."""

    def test_stage_span_attrs_equal_bus_and_statistics(self, lubm_cluster):
        query = get_dataset("LUBM").queries()["LQ1"]
        lubm_cluster.reset_network()
        trace = Trace("query")
        result = GStoreDEngine(lubm_cluster).execute(query, trace=trace)
        trace.finish()

        bus = lubm_cluster.bus
        stage_spans = trace.find_spans(category=CATEGORY_STAGE)
        assert stage_spans
        for span in stage_spans:
            stage_name = span.name.removeprefix("stage:")
            stage = result.statistics.find_stage(stage_name)
            assert stage is not None
            assert span.attrs["shipped_bytes"] == stage.shipped_bytes
            assert span.attrs["messages"] == stage.messages
            assert bus.bytes_for_stage(stage_name) == stage.shipped_bytes
            assert bus.messages_for_stage(stage_name) == stage.messages
        total_from_spans = sum(span.attrs["shipped_bytes"] for span in stage_spans)
        assert total_from_spans == result.statistics.total_shipment_bytes == bus.total_bytes
