"""Concurrent serving on top of :class:`~repro.api.Session`.

One session is safe under parallel ``query()`` calls; this module puts an
HTTP front end on that guarantee:

* :class:`AdmissionController` — a bounded admission queue: at most
  ``max_inflight`` queries execute at once, at most ``max_queue`` wait, and
  anything beyond that is rejected immediately with :class:`AdmissionError`
  (the HTTP layer maps it to ``429 Too Many Requests``), so overload sheds
  load instead of stacking requests until something times out;
* :class:`QueryServer` — the thin HTTP front end behind ``repro serve``:
  ``POST /query`` evaluates SPARQL (a failing site task answers ``500``
  naming its ``site`` and ``stage``), ``GET /metrics`` exposes the session's
  Prometheus text (admission families included) and ``GET /healthz``
  answers liveness probes.

Everything here is stdlib-only (``http.server``), matching the repository's
no-new-dependencies rule.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Optional, Tuple

from ..exec import SiteTaskError
from ..obs import MetricsRegistry
from .session import Session

#: Metric families fed by the admission controller (docs/observability.md).
QUEUE_DEPTH_FAMILY = "repro_admission_queue_depth"
INFLIGHT_FAMILY = "repro_admission_inflight"
REJECTED_FAMILY = "repro_admission_rejected_total"

_QUEUE_DEPTH_HELP = "Queries waiting for an execution slot right now."
_INFLIGHT_HELP = "Queries executing right now (bounded by max_inflight)."
_REJECTED_HELP = "Queries rejected because the admission queue was full."

#: Largest ``POST /query`` body accepted (1 MiB); a longer declared
#: ``Content-Length`` is answered 413 before any byte of the body is read.
MAX_BODY_BYTES = 1 << 20

#: How often the accept loop checks for :meth:`QueryServer.shutdown`, which
#: waits up to this long; the ``socketserver`` default is 0.5 s.
SHUTDOWN_POLL_S = 0.05


class AdmissionError(RuntimeError):
    """Raised when the admission queue is full; callers should retry later."""


class AdmissionController:
    """Bounded admission: ``max_inflight`` running, ``max_queue`` waiting.

    :meth:`admit` is a context manager wrapping one query execution.  When a
    slot is free it is taken immediately; otherwise the caller waits in the
    queue — unless ``max_queue`` callers already wait, in which case
    :class:`AdmissionError` is raised *without blocking*.  Rejecting beyond
    the bound (instead of queueing unboundedly) is what keeps an overloaded
    server's latency finite and its accounting honest.
    """

    def __init__(
        self,
        max_inflight: int = 4,
        max_queue: int = 16,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._slots = threading.Semaphore(max_inflight)
        self._lock = threading.Lock()
        self._queued = 0
        self._inflight = 0
        self.rejected = 0
        self._metrics = metrics
        if metrics is not None:
            # Pre-create the families at zero so scrapes see them before the
            # first request (and before the first rejection).
            metrics.gauge(QUEUE_DEPTH_FAMILY, _QUEUE_DEPTH_HELP).set(0)
            metrics.gauge(INFLIGHT_FAMILY, _INFLIGHT_HELP).set(0)
            metrics.counter(REJECTED_FAMILY, _REJECTED_HELP).inc(0)

    @property
    def queued(self) -> int:
        with self._lock:
            return self._queued

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def _set_gauge(self, family: str, help_text: str, value: int) -> None:
        if self._metrics is not None:
            self._metrics.gauge(family, help_text).set(value)

    @contextmanager
    def admit(self) -> Iterator[None]:
        """Hold one execution slot for the duration of the ``with`` block."""
        if not self._slots.acquire(blocking=False):
            with self._lock:
                if self._queued >= self.max_queue:
                    self.rejected += 1
                    if self._metrics is not None:
                        self._metrics.counter(REJECTED_FAMILY, _REJECTED_HELP).inc()
                    raise AdmissionError(
                        f"admission queue full ({self._queued} waiting, "
                        f"{self.max_inflight} executing); retry later"
                    )
                self._queued += 1
                self._set_gauge(QUEUE_DEPTH_FAMILY, _QUEUE_DEPTH_HELP, self._queued)
            try:
                self._slots.acquire()
            finally:
                with self._lock:
                    self._queued -= 1
                    self._set_gauge(QUEUE_DEPTH_FAMILY, _QUEUE_DEPTH_HELP, self._queued)
        with self._lock:
            self._inflight += 1
            self._set_gauge(INFLIGHT_FAMILY, _INFLIGHT_HELP, self._inflight)
        try:
            yield
        finally:
            with self._lock:
                self._inflight -= 1
                self._set_gauge(INFLIGHT_FAMILY, _INFLIGHT_HELP, self._inflight)
            self._slots.release()


class _Handler(BaseHTTPRequestHandler):
    """Request handler for :class:`QueryServer` (one instance per request)."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Quiet by default; the metrics endpoint is the observability story."""

    @property
    def _query_server(self) -> "QueryServer":
        return self.server.repro_server  # type: ignore[attr-defined]

    def _respond(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._respond(status, body, "application/json")

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        server = self._query_server
        if self.path == "/healthz":
            session = server.session
            body = {
                "status": "ok",
                "dataset": session.dataset,
                "engine": session.default_engine,
                "executor": session.backend.name,
            }
            self._respond_json(200, body)
        elif self.path == "/metrics":
            text = server.session.metrics.prometheus_text()
            self._respond(200, text.encode("utf-8"), "text/plain; version=0.0.4")
        else:
            self._respond_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        # An answer sent before the body is read closes the connection: on a
        # kept-alive one, the unread body would be parsed as the next request.
        if "Transfer-Encoding" in self.headers:
            # http.server does not decode chunked bodies; only a
            # Content-Length can frame one.
            self.close_connection = True
            self._respond_json(
                411, {"error": "Transfer-Encoding is not supported; send Content-Length"}
            )
            return
        if self.path != "/query":
            self.close_connection = True
            self._respond_json(404, {"error": f"unknown path {self.path!r}"})
            return
        server = self._query_server
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # Reject before reading: ``rfile.read`` of a negative length blocks
            # this handler thread until the client hangs up, and without a
            # usable length the rest of the connection cannot be framed.
            self.close_connection = True
            self._respond_json(400, {"error": "Content-Length must be a non-negative integer"})
            return
        if length > MAX_BODY_BYTES:
            # Same reason: reading a body this size (or waiting for one the
            # client only claimed) would pin this handler thread.
            self.close_connection = True
            self._respond_json(
                413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"}
            )
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:  # includes json.JSONDecodeError
            self._respond_json(400, {"error": "request body must be a JSON object"})
            return
        if not isinstance(payload, dict) or not isinstance(payload.get("query"), str):
            self._respond_json(
                400, {"error": 'expected {"query": "<SPARQL or benchmark name>", ...}'}
            )
            return
        engine, name = payload.get("engine"), payload.get("name", "")
        if engine is not None and not isinstance(engine, str):
            self._respond_json(400, {"error": "'engine' must be a string or null"})
            return
        if not isinstance(name, str):
            self._respond_json(400, {"error": "'name' must be a string"})
            return
        try:
            with server.admission.admit():
                result = server.session.query(payload["query"], engine=engine, query_name=name)
        except AdmissionError as error:
            self._respond_json(429, {"error": str(error)})
            return
        except ValueError as error:
            # Raised before any site work: a bad query, engine or name.
            self._respond_json(400, {"error": str(error)})
            return
        except Exception as error:
            # A site task's own exception arrives wrapped in SiteTaskError (a
            # RuntimeError), so a handler bug is never the client's fault.
            failure: Dict[str, Any] = {"error": f"{type(error).__name__}: {error}"}
            if isinstance(error, SiteTaskError):
                failure.update(site=error.site_id, stage=error.stage)
            self._respond_json(500, failure)
            return
        statistics = result.statistics
        body = {
            "rows": result.to_dicts(),
            "num_rows": len(result),
            "engine": statistics.engine,
            "total_time_ms": round(statistics.total_time_ms, 3),
            "shipped_bytes": result.shipment.total_bytes if result.shipment else 0,
        }
        self._respond_json(200, body)


class QueryServer:
    """The HTTP front end of ``repro serve``: one session, bounded admission.

    Binds immediately (``port=0`` picks a free port — :attr:`address` has
    the real one); :meth:`serve_forever` blocks the calling thread while
    :meth:`start` serves from a daemon thread instead (tests, embedding).
    :meth:`shutdown` stops either and closes the listening socket, but never
    the session — the caller owns it, symmetrical with ``Session.from_cluster``.
    """

    def __init__(
        self,
        session: Session,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_inflight: int = 4,
        max_queue: int = 16,
    ) -> None:
        self.session = session
        self.admission = AdmissionController(
            max_inflight=max_inflight, max_queue=max_queue, metrics=session.metrics
        )
        self._http = ThreadingHTTPServer((host, port), _Handler)
        self._http.daemon_threads = True
        self._http.repro_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — authoritative when opened with port 0."""
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    def start(self) -> "QueryServer":
        """Serve from a background daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-serve", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (the CLI path)."""
        self._http.serve_forever(poll_interval=SHUTDOWN_POLL_S)

    def shutdown(self) -> None:
        """Stop serving and close the socket (idempotent; keeps the session)."""
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        host, port = self.address
        return f"<QueryServer http://{host}:{port} session={self.session!r}>"
