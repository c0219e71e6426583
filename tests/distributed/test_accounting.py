"""Concurrency and consistency of the accounting primitives.

Concurrent queries record times and send messages from their own threads;
these tests pin that no sample is ever lost when several threads record at
once, that each thread's ledger holds exactly its own sends, and that the
per-stage/per-kind byte breakdowns agree with each other and with the
shipment attributes the tracing layer stamps onto stage spans.
"""

import gc
import threading

import pytest

from repro.api import make_engine
from repro.core import GStoreDEngine
from repro.datasets import get_dataset, lubm
from repro.distributed import build_cluster
from repro.distributed.network import Message, MessageBus, StageTimer
from repro.partition import HashPartitioner
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
    def test_concurrent_ledgers_each_hold_exactly_their_thread_s_sends(self):
        bus = MessageBus()
        sends_per_thread = 400
        ledgers = {}

        def worker(site_id):
            with bus.ledger() as ledger:
                for _ in range(sends_per_thread):
                    bus.send(site_id, -1, "local_matches", "xxxx", stage="partial_evaluation")
            ledgers[site_id] = ledger

        run_in_threads(worker)
        assert sorted(ledgers) == list(range(8))
        for site_id, ledger in ledgers.items():
            assert ledger.total_messages == sends_per_thread
            assert ledger.total_bytes == sends_per_thread * 4  # "xxxx" is 4 bytes
            assert {message.source for message in ledger.messages} == {site_id}
            assert ledger.snapshot().messages_by_stage == {"partial_evaluation": sends_per_thread}

    def test_stage_and_kind_breakdowns_are_consistent(self):
        bus = MessageBus()
        with bus.ledger() as ledger:
            bus.send(0, 1, "candidate_vectors", "aa", stage="candidate_exchange")
            bus.send(1, -1, "local_matches", "bbbb", stage="partial_evaluation")
            bus.send(2, -1, "local_matches", "cc", stage="partial_evaluation")
        snapshot = ledger.snapshot()
        assert snapshot.total_bytes == ledger.total_bytes == 8
        assert snapshot.total_messages == ledger.total_messages == 3
        assert sum(snapshot.bytes_by_stage.values()) == snapshot.total_bytes
        assert sum(snapshot.bytes_by_kind.values()) == snapshot.total_bytes
        assert sum(snapshot.messages_by_stage.values()) == snapshot.total_messages
        assert snapshot.bytes_by_stage == {"candidate_exchange": 2, "partial_evaluation": 6}
        assert snapshot.bytes_by_kind == {"candidate_vectors": 2, "local_matches": 6}


class TestSpanAttributesMatchTheLedger:
    """The shipment attrs on stage spans are the same numbers the ledger and
    the statistics report — one accounting, three views."""

    def test_stage_span_attrs_equal_ledger_and_statistics(self, lubm_cluster):
        query = get_dataset("LUBM").queries()["LQ1"]
        trace = Trace("query")
        with lubm_cluster.bus.ledger() as ledger:
            result = GStoreDEngine(lubm_cluster).execute(query, trace=trace)
        trace.finish()

        shipment = ledger.snapshot()
        stage_spans = trace.find_spans(category=CATEGORY_STAGE)
        assert stage_spans
        for span in stage_spans:
            stage_name = span.name.removeprefix("stage:")
            stage = result.statistics.find_stage(stage_name)
            assert stage is not None
            assert span.attrs["shipped_bytes"] == stage.shipped_bytes
            assert span.attrs["messages"] == stage.messages
            assert shipment.bytes_by_stage.get(stage_name, 0) == stage.shipped_bytes
            assert shipment.messages_by_stage.get(stage_name, 0) == stage.messages
        total_from_spans = sum(span.attrs["shipped_bytes"] for span in stage_spans)
        assert total_from_spans == result.statistics.total_shipment_bytes == shipment.total_bytes


def test_runs_outside_a_ledger_leave_no_message_alive():
    """The bus keeps no log: 20 direct runs hold no :class:`Message` after them."""
    cluster = build_cluster(HashPartitioner(3).partition(lubm.generate(scale=1)))
    query = lubm.queries()["LQ1"]
    engine = make_engine("gstored", cluster)
    for _ in range(20):
        assert engine.execute(query).statistics.total_shipment_bytes > 0
    gc.collect()
    assert sum(isinstance(obj, Message) for obj in gc.get_objects()) == 0
