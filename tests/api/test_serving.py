"""Tests for :mod:`repro.api.serving` — admission and the HTTP server."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.api import AdmissionController, AdmissionError, QueryServer
from repro.api.serving import (
    INFLIGHT_FAMILY,
    MAX_BODY_BYTES,
    QUEUE_DEPTH_FAMILY,
    REJECTED_FAMILY,
    _Handler,
)

#: SPARQL over the paper example, served beside the named ``example`` query.
PAPER_NAMES = "SELECT ?p ?n WHERE { ?p <http://example.org/name> ?n . }"
PAPER_INFLUENCES = (
    "SELECT ?a ?b ?l WHERE { ?a <http://example.org/influencedBy> ?b . "
    "?b <http://example.org/mainInterest> ?i . ?i <http://example.org/label> ?l . }"
)
#: LUBM scale 1: 192 rows, a ~30 KB body (far over an 8 KiB socket buffer).
LUBM_TAKES_COURSE = (
    "PREFIX ub: <http://example.org/univ-bench#> "
    "SELECT ?x ?y WHERE { ?x ub:takesCourse ?y . }"
)


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


def _read_response(stream):
    """Read one response off ``stream`` by its Content-Length (so a kept-alive
    connection is not waited on): its status code and every byte of it."""
    received = [stream.readline()]
    length = 0
    for line in iter(stream.readline, b"\r\n"):
        received.append(line)
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    received += [b"\r\n", stream.read(length)]
    return int(received[0].split()[1]), b"".join(received)


def _exchange(address, request):
    """Send raw ``request`` bytes; return the first response's status line and
    JSON body, and every byte the server sent after it before closing."""
    with socket.create_connection(address, timeout=5.0) as connection:
        connection.sendall(request)
        stream = connection.makefile("rb")
        _status, response = _read_response(stream)
        head, _, body = response.partition(b"\r\n\r\n")
        return head.partition(b"\r\n")[0], json.loads(body), stream.read()  # read() returns at EOF


def _roundtrip(address, request):
    """Send raw ``request`` bytes on a fresh connection; return the status
    code and every byte of the one response."""
    with socket.create_connection(address, timeout=5.0) as connection:
        connection.sendall(request)
        return _read_response(connection.makefile("rb"))


def _post_request(path, body):
    head = f"POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("ascii") + body


class TestQueryServer:
    @pytest.fixture()
    def served(self):
        session = repro.open(dataset="paper")
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

    def test_query_roundtrip(self, served):
        _session, _server, base = served
        status, first = _post(base, {"query": "example"})
        assert status == 200
        assert first["num_rows"] == 4
        assert len(first["rows"]) == 4
        status, second = _post(base, {"query": "example"})
        assert second["rows"] == first["rows"]

    @pytest.mark.parametrize("engine", repro.engine_names())
    def test_every_engine_answers_with_the_same_body_keys(self, served, engine):
        session, _server, base = served
        status, body = _post(base, {"query": "example", "engine": engine})
        assert status == 200
        assert set(body) == {"rows", "num_rows", "engine", "total_time_ms", "shipped_bytes"}
        assert body["engine"] == session.engine(engine).name
        assert body["num_rows"] == len(body["rows"]) == 4

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
        "framing",
        [
            "Transfer-Encoding: chunked",
            "Transfer-Encoding: gzip, chunked",
            "Content-Length: 20\r\nTransfer-Encoding: chunked",
        ],
        ids=["chunked", "gzip-chunked", "with-content-length"],
    )
    def test_a_chunked_post_gets_one_411_and_the_connection_closes(self, served, framing):
        """Regression: a chunked body was read as empty (a JSON 400 asking for
        "query") and its chunk bytes were then parsed as a second request."""
        _session, server, _base = served
        body = json.dumps({"query": "example"}).encode("ascii")
        request = (
            b"POST /query HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            + framing.encode("ascii") + b"\r\n\r\n"
            + f"{len(body):x}\r\n".encode("ascii") + body + b"\r\n0\r\n\r\n"
        )
        status_line, payload, rest = _exchange(server.address, request)
        assert status_line.startswith(b"HTTP/1.1 411 "), status_line
        assert "Content-Length" in payload["error"]
        assert rest == b"", rest

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

    @pytest.mark.parametrize(
        "content_length",
        ["-1", "ten", "2_0", "+20", "\xb2", "", "20, 20", "20\r\nContent-Length: 3"],
        ids=["negative", "word", "underscore", "plus", "superscript", "empty", "list", "differing-duplicate"],
    )
    def test_unusable_content_length_gets_400_without_reading(self, served, content_length):
        """Regression: ``rfile.read(-1)`` blocked the handler until the client
        hung up; ``int`` took ``2_0`` and ``+20``; of two differing headers
        only the first framed the body.  Each gets 400 and a closed connection."""
        _session, server, _base = served
        request = (
            f"POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {content_length}\r\n\r\n"
        ).encode("latin-1")
        with socket.create_connection(server.address, timeout=1.0) as connection:
            connection.sendall(request)  # the socket stays open: no EOF to unblock a read
            response = connection.makefile("rb").read()  # returns once the server closes
        assert response.startswith(b"HTTP/1.1 400 "), response
        assert b"Content-Length" in response

    def test_identical_duplicate_content_lengths_frame_the_body(self, served):
        _session, server, _base = served
        body = json.dumps({"query": "example"}).encode("ascii")
        request = (
            "POST /query HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body
        status, response = _roundtrip(server.address, request)
        assert status == 200, response
        assert json.loads(response.partition(b"\r\n\r\n")[2])["num_rows"] == 4

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

    def test_a_post_to_an_unknown_path_closes_the_connection(self, served):
        """The unread body of a 404'd POST is never parsed as a next request."""
        _session, server, _base = served
        body = b'GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n'
        request = (
            f"POST /nope HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body
        status_line, payload, rest = _exchange(server.address, request)
        assert status_line.startswith(b"HTTP/1.1 404 "), status_line
        assert "/nope" in payload["error"]
        assert rest == b"", rest

    def test_metrics_endpoint_exposes_the_new_families(self, served):
        _session, _server, base = served
        _post(base, {"query": "example"})
        _post(base, {"query": "example"})
        with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        for family in (
            "repro_queries_total",
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

    def test_no_delayed_ack_stall_on_one_connection(self, served):
        """A stalled response waited 40 ms or more for the client's delayed ACK."""
        _session, server, _base = served
        connection = http.client.HTTPConnection(*server.address, timeout=30)
        body = json.dumps({"query": "example"}).encode("ascii")
        latencies = {"GET": [], "POST": []}
        try:
            for method, path, payload in [("GET", "/healthz", None), ("POST", "/query", body)] * 20:
                started = time.perf_counter()
                connection.request(method, path, body=payload)
                response = connection.getresponse()
                response.read()
                latencies[method].append((time.perf_counter() - started) * 1e3)
                assert response.status == 200
        finally:
            connection.close()
        for method, samples in latencies.items():
            assert statistics.median(samples) < 20.0, (method, sorted(samples))

    def test_two_keep_alive_clients_overlap_and_answer_right(self, served):
        session, server, base = served
        queries = ["example", PAPER_NAMES, PAPER_INFLUENCES]
        expected = {
            query: sorted(json.dumps(row, sort_keys=True) for row in session.query(query).to_dicts())
            for query in queries
        }

        def queries_total():
            with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
                text = response.read().decode("utf-8")
            return sum(
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith("repro_queries_total")
            )

        def client(offset):
            connection = http.client.HTTPConnection(*server.address, timeout=30)
            answers = []
            try:
                for index in range(15):
                    query = queries[(index + offset) % len(queries)]
                    connection.request("POST", "/query", body=json.dumps({"query": query}))
                    response = connection.getresponse()
                    answers.append((query, response.status, json.loads(response.read())))
            finally:
                connection.close()
            return answers

        before = queries_total()
        with ThreadPoolExecutor(max_workers=2) as pool:
            answers = [a for future in [pool.submit(client, k) for k in (0, 1)] for a in future.result()]
        assert len(answers) == 30
        for query, status, body in answers:
            assert status == 200, body
            assert sorted(json.dumps(row, sort_keys=True) for row in body["rows"]) == expected[query]
            assert body["num_rows"] == len(expected[query])
        assert queries_total() - before == 30

    def test_shutdown_keeps_the_session_open(self):
        session = repro.open(dataset="paper")
        server = QueryServer(session, port=0).start()
        server.shutdown()
        server.shutdown()  # idempotent
        assert not session.closed
        assert len(session.query("example")) == 4
        session.close()


class _CountingWriter:
    """Wraps a handler's ``wfile``; logs the size of every ``write``."""

    def __init__(self, raw, log):
        self._raw = raw
        self._log = log

    def write(self, data):
        self._log.append(len(data))
        return self._raw.write(data)

    def __getattr__(self, name):  # flush, close, closed
        return getattr(self._raw, name)


class TestOneWritePerResponse:
    """Head and body leave in one ``wfile.write``: written apart, Nagle's
    algorithm held the body until the client's delayed ACK (40 ms or more)."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        writes = []
        real_setup = _Handler.setup

        def counting_setup(handler):
            real_setup(handler)
            handler.wfile = _CountingWriter(handler.wfile, writes)

        monkeypatch.setattr(_Handler, "setup", counting_setup)
        session = repro.open(dataset="lubm", scale=1)
        with QueryServer(session, port=0, max_inflight=1, max_queue=0) as server:
            yield session, server, writes
        session.close()

    @staticmethod
    def _assert_one_write(server, writes, request, status):
        writes.clear()
        got, response = _roundtrip(server.address, request)
        assert got == status, response
        assert writes == [len(response)]
        return response

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n", 200),
            (b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n", 200),
            (_post_request("/query", b"not json"), 400),
            (b"GET /nope HTTP/1.1\r\nHost: test\r\n\r\n", 404),
            (_post_request("/nope", b"{}"), 404),
            (
                b"POST /query HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"0\r\n\r\n",
                411,
            ),
            (
                f"POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {MAX_BODY_BYTES + 1}"
                "\r\n\r\n".encode("ascii"),
                413,
            ),
        ],
        ids=["healthz", "metrics", "400", "404-get", "404-post", "411", "413"],
    )
    def test_each_response_is_one_write(self, counted, request_bytes, status):
        _session, server, writes = counted
        self._assert_one_write(server, writes, request_bytes, status)

    def test_a_large_answer_is_one_write(self, counted):
        _session, server, writes = counted
        body = json.dumps({"query": LUBM_TAKES_COURSE}).encode("ascii")
        response = self._assert_one_write(server, writes, _post_request("/query", body), 200)
        assert len(response.partition(b"\r\n\r\n")[2]) > 8192

    def test_a_500_is_one_write(self, counted, monkeypatch):
        session, server, writes = counted

        def failing_query(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(session, "query", failing_query)
        body = json.dumps({"query": "LQ1"}).encode("ascii")
        response = self._assert_one_write(server, writes, _post_request("/query", body), 500)
        assert b"RuntimeError: boom" in response

    def test_a_429_is_one_write(self, counted, monkeypatch):
        session, server, writes = counted
        release = threading.Event()
        entered = threading.Event()
        real_query = session.query

        def slow_query(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return real_query(*args, **kwargs)

        monkeypatch.setattr(session, "query", slow_query)
        request = _post_request("/query", json.dumps({"query": "LQ1"}).encode("ascii"))
        with ThreadPoolExecutor(max_workers=1) as pool:
            blocked = pool.submit(_roundtrip, server.address, request)
            try:
                assert entered.wait(timeout=30)  # the one slot is taken
                self._assert_one_write(server, writes, request, 429)
            finally:
                release.set()
            status, response = blocked.result()
        assert status == 200
        assert writes[1:] == [len(response)]  # after the 429's one write
