"""Tests for :mod:`repro.api.serving` — AsyncSession, admission, HTTP server."""

import asyncio
import json
import socket
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.api import AdmissionController, AdmissionError, AsyncSession, QueryServer
from repro.api.serving import (
    INFLIGHT_FAMILY,
    MAX_BODY_BYTES,
    QUEUE_DEPTH_FAMILY,
    REJECTED_FAMILY,
)


class TestAsyncSession:
    def test_gathered_queries_share_one_warm_session(self):
        async def main():
            async with AsyncSession.open(dataset="paper") as session:
                first, second = await asyncio.gather(
                    session.query("example"),
                    session.query("example", engine="centralized"),
                )
                assert first.sorted_rows() == second.sorted_rows()
                assert first.shipment.total_bytes > 0
                return session

        session = asyncio.run(main())
        assert session.closed
        assert session.session.closed  # the wrapped Session closed too

    def test_wraps_an_existing_session(self):
        inner = repro.open(dataset="paper")

        async def main():
            async with AsyncSession(inner, max_concurrency=2) as session:
                assert session.max_concurrency == 2
                result = await session.query("example")
                assert len(result) == 4
                plan = await session.explain("example")
                assert "query shape" in plan

        asyncio.run(main())
        assert inner.closed

    def test_query_many_returns_the_batch_report(self):
        async def main():
            async with AsyncSession.open(dataset="paper") as session:
                batch = await session.query_many(["example", "example"])
                assert len(batch) == 2
                assert [entry["rows"] for entry in batch.report] == [4, 4]

        asyncio.run(main())

    def test_closed_async_session_rejects_work(self):
        async def main():
            session = AsyncSession.open(dataset="paper")
            await session.close()
            await session.close()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                await session.query("example")

        asyncio.run(main())

    def test_rejects_a_nonpositive_concurrency(self):
        with repro.open(dataset="paper") as inner:
            with pytest.raises(ValueError, match="max_concurrency"):
                AsyncSession(inner, max_concurrency=0)


class TestAdmissionController:
    def test_validates_its_bounds(self):
        with pytest.raises(ValueError, match="max_inflight"):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionController(max_queue=-1)

    def test_idle_controller_admits_even_with_zero_queue(self):
        controller = AdmissionController(max_inflight=1, max_queue=0)
        with controller.admit():
            assert controller.inflight == 1
        assert controller.inflight == 0

    def test_overload_rejects_instead_of_queueing(self):
        controller = AdmissionController(max_inflight=1, max_queue=0)
        occupied = threading.Event()
        release = threading.Event()

        def hold():
            with controller.admit():
                occupied.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert occupied.wait(timeout=30)
            with pytest.raises(AdmissionError, match="queue full"):
                with controller.admit():
                    pass  # pragma: no cover - never admitted
            assert controller.rejected == 1
        finally:
            release.set()
            holder.join()

    def test_queued_caller_runs_once_a_slot_frees(self):
        controller = AdmissionController(max_inflight=1, max_queue=1)
        occupied = threading.Event()
        release = threading.Event()
        order = []

        def hold():
            with controller.admit():
                occupied.set()
                release.wait(timeout=30)
                order.append("holder")

        def queued():
            with controller.admit():
                order.append("queued")

        holder = threading.Thread(target=hold)
        holder.start()
        assert occupied.wait(timeout=30)
        waiter = threading.Thread(target=queued)
        waiter.start()
        while controller.queued == 0 and waiter.is_alive():
            pass  # spin until the waiter is parked in the queue
        release.set()
        holder.join()
        waiter.join()
        assert order == ["holder", "queued"]
        assert controller.rejected == 0

    def test_admission_metrics_are_precreated_and_updated(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        controller = AdmissionController(max_inflight=2, max_queue=0, metrics=registry)
        text = registry.prometheus_text()
        for family in (QUEUE_DEPTH_FAMILY, INFLIGHT_FAMILY, REJECTED_FAMILY):
            assert family in text
        with controller.admit():
            assert f"{INFLIGHT_FAMILY} 1" in registry.prometheus_text()
        assert f"{INFLIGHT_FAMILY} 0" in registry.prometheus_text()


def _post(base, payload, timeout=30):
    request = urllib.request.Request(
        base + "/query",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


class TestQueryServer:
    @pytest.fixture()
    def served(self):
        session = repro.open(dataset="paper", result_cache=8)
        with QueryServer(session, port=0, max_inflight=2, max_queue=2) as server:
            host, port = server.address
            yield session, server, f"http://{host}:{port}"
        session.close()

    def test_healthz_reports_the_session(self, served):
        session, _server, base = served
        with urllib.request.urlopen(base + "/healthz", timeout=30) as response:
            body = json.loads(response.read())
        assert body == {
            "status": "ok",
            "dataset": session.dataset,
            "engine": session.default_engine,
            "executor": session.backend.name,
        }

    def test_query_roundtrip_and_cache_hit(self, served):
        _session, _server, base = served
        status, first = _post(base, {"query": "example"})
        assert status == 200
        assert first["num_rows"] == 4
        assert first["cache_hit"] is False
        assert len(first["rows"]) == 4
        status, second = _post(base, {"query": "example"})
        assert second["cache_hit"] is True
        assert second["rows"] == first["rows"]

    def test_engine_override_is_honored(self, served):
        _session, _server, base = served
        status, body = _post(base, {"query": "example", "engine": "centralized"})
        assert status == 200
        assert body["engine"] == "Centralized"

    def test_bad_requests_get_400(self, served):
        _session, _server, base = served
        request = urllib.request.Request(
            base + "/query", data=b"not json", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, {"query": 42})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, {"query": "example", "engine": "sparkle"})
        assert excinfo.value.code == 400
        for body in ({"query": "example", "engine": 5}, {"query": "example", "name": ["a"]}):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, body)
            assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "field, value",
        [("engine", 5), ("engine", True), ("engine", ["gstored"]), ("engine", {}), ("name", ["a"]), ("name", 7), ("name", None)],
    )
    def test_a_mistyped_field_gets_400_naming_it(self, served, field, value):
        """Regression: a non-string ``engine`` answered 500 and a list ``name`` was accepted."""
        _session, _server, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, {"query": "example", field: value})
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"].startswith(f"'{field}' must be")

    def test_a_null_engine_and_a_string_name_are_accepted(self, served):
        session, _server, base = served
        status, body = _post(base, {"query": "example", "engine": None, "name": "fig1"})
        assert status == 200
        assert body["num_rows"] == 4
        assert body["engine"] == session.engine(session.default_engine).name

    @pytest.mark.parametrize("content_length", ["-1", "ten"])
    def test_unusable_content_length_gets_400_without_reading(self, served, content_length):
        """Regression: ``rfile.read(-1)`` blocked the handler until the client hung up."""
        _session, server, _base = served
        request = (
            f"POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {content_length}\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection(server.address, timeout=1.0) as connection:
            connection.sendall(request)  # the socket stays open: no EOF to unblock a read
            status_line = connection.makefile("rb").readline()
        assert status_line.startswith(b"HTTP/1.1 400 "), status_line

    def test_oversized_content_length_gets_413_without_reading(self, served):
        """A claimed 2 GiB body is refused at once and the connection closed;
        the server keeps answering."""
        _session, server, base = served
        request = (
            f"POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {2 << 30}\r\n\r\n"
            '{"query":'
        ).encode("ascii")
        with socket.create_connection(server.address, timeout=1.0) as connection:
            connection.sendall(request)  # the socket stays open: no EOF to unblock a read
            response = connection.makefile("rb").read()  # returns once the server closes
        assert response.startswith(b"HTTP/1.1 413 "), response
        assert str(MAX_BODY_BYTES).encode("ascii") in response
        with urllib.request.urlopen(base + "/healthz", timeout=30) as health:
            assert health.status == 200

    def test_a_body_at_the_cap_is_read(self, served):
        _session, _server, base = served
        body = json.dumps({"query": "example"}).encode("ascii")
        request = urllib.request.Request(
            base + "/query",
            data=body + b" " * (MAX_BODY_BYTES - len(body)),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            assert json.loads(response.read())["num_rows"] == 4

    def test_unknown_paths_get_404(self, served):
        _session, _server, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/nope", timeout=30)
        assert excinfo.value.code == 404

    def test_metrics_endpoint_exposes_the_new_families(self, served):
        _session, _server, base = served
        _post(base, {"query": "example"})
        _post(base, {"query": "example"})
        with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        for family in (
            "repro_queries_total",
            "repro_result_cache_hits_total",
            "repro_result_cache_misses_total",
            QUEUE_DEPTH_FAMILY,
            INFLIGHT_FAMILY,
            REJECTED_FAMILY,
        ):
            assert family in text

    def test_overload_sheds_with_429(self, monkeypatch):
        """Saturate inflight + queue with blocked queries; the next is 429."""
        session = repro.open(dataset="paper")
        release = threading.Event()
        entered = threading.Semaphore(0)
        real_query = session.query

        def slow_query(*args, **kwargs):
            entered.release()
            release.wait(timeout=30)
            return real_query(*args, **kwargs)

        monkeypatch.setattr(session, "query", slow_query)
        with QueryServer(session, port=0, max_inflight=1, max_queue=1) as server:
            host, port = server.address
            base = f"http://{host}:{port}"
            with ThreadPoolExecutor(max_workers=2) as pool:
                blocked = [pool.submit(_post, base, {"query": "example"}) for _ in range(2)]
                assert entered.acquire(timeout=30)  # one query is executing
                while server.admission.queued == 0:
                    pass  # spin until the second request is parked in the queue
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(base, {"query": "example"})
                assert excinfo.value.code == 429
                assert "retry" in json.loads(excinfo.value.read())["error"]
                release.set()
                statuses = [future.result()[0] for future in blocked]
            assert statuses == [200, 200]
            assert f"{REJECTED_FAMILY} 1" in session.metrics.prometheus_text()
        session.close()

    def test_shutdown_keeps_the_session_open(self):
        session = repro.open(dataset="paper")
        server = QueryServer(session, port=0).start()
        server.shutdown()
        server.shutdown()  # idempotent
        assert not session.closed
        assert len(session.query("example")) == 4
        session.close()
