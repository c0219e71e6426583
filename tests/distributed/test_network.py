"""Unit tests for the simulated network and size estimation."""

import time

import pytest

import repro
from repro.api import engine_names
from repro.core import CandidateBitVector, LECFeature, LocalPartialMatch
from repro.distributed import network
from repro.distributed import COORDINATOR, MessageBus, StageTimer, estimate_size
from repro.rdf import IRI, Literal, Triple


class TestEstimateSize:
    def test_terms_are_charged_their_text_length(self):
        iri = IRI("http://example.org/abc")
        assert estimate_size(iri) == len(iri.n3())

    def test_triples(self):
        triple = Triple(IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b"))
        assert estimate_size(triple) == len(triple.n3())

    def test_containers_add_framing(self):
        items = [IRI("http://x/a"), IRI("http://x/b")]
        assert estimate_size(items) == 4 + sum(estimate_size(i) for i in items)

    def test_dicts(self):
        payload = {"key": 7}
        assert estimate_size(payload) == 4 + estimate_size("key") + estimate_size(7)

    def test_scalars(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(12) == 8
        assert estimate_size(3.5) == 8
        assert estimate_size("abc") == 3
        assert estimate_size(b"abcd") == 4

    def test_objects_with_shipment_size_delegate(self):
        vector = CandidateBitVector(width=1024)
        assert estimate_size(vector) == vector.shipment_size()

    def test_empty_string_literal(self):
        assert estimate_size(Literal("")) == len('""')


@pytest.fixture(scope="module")
def lubm_session():
    with repro.open(dataset="lubm", scale=1) as session:
        yield session


class TestNoPayloadIsPrinted:
    """Every engine's messages are sized structurally, never by ``repr``."""

    @pytest.mark.parametrize("engine", engine_names())
    def test_engine_never_reaches_the_repr_fallback(self, engine, lubm_session, monkeypatch):
        printed = []

        def recording_repr(payload):
            printed.append(type(payload).__name__)
            return object.__repr__(payload)

        # ``estimate_size`` finds ``repr`` in its module before the builtins.
        monkeypatch.setattr(network, "repr", recording_repr, raising=False)
        shipped = 0
        for name in ("LQ1", "LQ2", "LQ7"):
            shipped += lubm_session.query(name, engine=engine).shipment.total_bytes
        assert printed == []
        assert shipped > 0 or engine == "centralized"

    def test_the_fallback_is_still_there_for_unknown_payloads(self, monkeypatch):
        # Proves the probe above can see the fallback, so its pass is not vacuous.
        printed = []
        monkeypatch.setattr(network, "repr", lambda payload: printed.append(payload) or "xyz", raising=False)
        payload = object()
        assert estimate_size(payload) == 3
        assert printed == [payload]


class TestMessageBus:
    def test_send_records_message_and_returns_size(self):
        bus = MessageBus()
        with bus.ledger() as ledger:
            size = bus.send(0, COORDINATOR, "test", [1, 2, 3], stage="stage-a")
        assert size == ledger.total_bytes
        assert ledger.total_messages == 1
        assert ledger.messages[0].kind == "test"

    def test_broadcast_counts_every_destination(self):
        bus = MessageBus()
        with bus.ledger() as ledger:
            total = bus.broadcast(COORDINATOR, [0, 1, 2], "bcast", "hello", stage="s")
        assert ledger.total_messages == 3
        assert total == ledger.total_bytes

    def test_broadcast_sizes_its_payload_once(self):
        class Payload:
            sized = 0

            def shipment_size(self):
                Payload.sized += 1
                return 17

        bus = MessageBus()
        with bus.ledger() as ledger:
            total = bus.broadcast(COORDINATOR, [2, 0, 1], "filter", Payload(), stage="s")
        assert Payload.sized == 1 and total == 3 * 17
        with bus.ledger() as sent:
            for destination in (2, 0, 1):
                bus.send(COORDINATOR, destination, "filter", Payload(), stage="s")
        assert ledger.messages == sent.messages
        assert ledger.snapshot() == sent.snapshot()

    def test_snapshot_sums_bytes_and_messages_by_stage(self):
        bus = MessageBus()
        with bus.ledger() as ledger:
            bus.send(0, 1, "a", "xx", stage="first")
            bus.send(1, 0, "b", "yyyy", stage="second")
        snapshot = ledger.snapshot()
        assert snapshot.bytes_by_stage == {"first": 2, "second": 4}
        assert snapshot.messages_by_stage == {"first": 1, "second": 1}

    def test_snapshot_sums_bytes_by_kind(self):
        bus = MessageBus()
        with bus.ledger() as ledger:
            bus.send(0, 1, "a", "xx")
            bus.send(0, 1, "a", "x")
            bus.send(0, 1, "b", "zzz")
        assert ledger.snapshot().bytes_by_kind == {"a": 3, "b": 3}

    def test_a_send_outside_a_ledger_is_sized_and_dropped(self):
        bus = MessageBus()
        assert bus.send(0, 1, "a", "xx") == 2
        assert bus.broadcast(0, [1, 2], "a", "xx") == 4
        with bus.ledger() as ledger:
            pass
        assert ledger.messages == []
        assert not hasattr(bus, "messages")

    def test_nested_ledgers_stack_and_the_innermost_wins(self):
        bus = MessageBus()
        with bus.ledger() as outer:
            bus.send(0, 1, "a", "x")
            with bus.ledger() as inner:
                bus.send(0, 1, "b", "yy")
            bus.send(0, 1, "c", "zzz")
        assert [m.kind for m in outer.messages] == ["a", "c"]
        assert [m.kind for m in inner.messages] == ["b"]


class TestStageTimer:
    def test_measures_site_and_coordinator_time(self):
        timer = StageTimer()
        with timer.measure("stage", 0):
            time.sleep(0.002)
        with timer.measure("stage"):
            time.sleep(0.001)
        assert timer.elapsed("stage", 0) > 0
        assert timer.elapsed("stage") > 0
        assert set(timer.site_times("stage")) == {0}

    def test_accumulates_repeated_measurements(self):
        timer = StageTimer()
        with timer.measure("stage", 1):
            pass
        first = timer.elapsed("stage", 1)
        with timer.measure("stage", 1):
            pass
        assert timer.elapsed("stage", 1) >= first

    def test_unknown_stage_is_zero(self):
        assert StageTimer().elapsed("nothing", 3) == 0.0


class TestThreadSafety:
    def test_concurrent_measures_lose_no_samples(self):
        import threading

        timer = StageTimer()

        def worker(site_id):
            for _ in range(50):
                with timer.measure("stage", site_id):
                    pass

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(timer.site_times("stage")) == {0, 1, 2, 3}

    def test_timer_reset(self):
        timer = StageTimer()
        with timer.measure("stage", 2):
            pass
        timer.reset()
        assert timer.elapsed("stage", 2) == 0.0
        assert timer.site_times("stage") == {}
