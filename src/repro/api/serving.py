"""Concurrent serving on top of :class:`~repro.api.Session`.

PR 7 made one session safe under parallel ``query()`` calls; this module is
everything that builds on that guarantee:

* :class:`AsyncSession` — an asyncio facade multiplexing queries over one
  warm session from a dedicated thread pool, so event-loop code can
  ``await session.query(...)`` without blocking the loop on a cold engine;
* :class:`AdmissionController` — a bounded admission queue: at most
  ``max_inflight`` queries execute at once, at most ``max_queue`` wait, and
  anything beyond that is rejected immediately with :class:`AdmissionError`
  (the HTTP layer maps it to ``429 Too Many Requests``), so overload sheds
  load instead of stacking requests until something times out;
* :class:`QueryServer` — the thin HTTP front end behind ``repro serve``:
  ``POST /query`` evaluates SPARQL, ``GET /metrics`` exposes the session's
  Prometheus text (admission depth and result-cache families included) and
  ``GET /healthz`` answers liveness probes.

Everything here is stdlib-only (``asyncio``, ``http.server``), matching the
repository's no-new-dependencies rule.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple, Union

from ..obs import MetricsRegistry
from ..sparql.algebra import SelectQuery
from .result import Result
from .session import QueryBatch, Session, open_session

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


class AsyncSession:
    """Asyncio facade over one warm :class:`Session`.

    Queries submitted with ``await`` run on a dedicated thread pool
    (``repro-query`` threads) against the shared session, so several
    coroutines can have queries in flight at once — the session's per-query
    ledgers keep their statistics independent.  ``max_concurrency``
    (default 4) sizes that pool.

    Lifecycle mirrors the synchronous session: ``async with`` or an explicit
    ``await close()``, which closes the wrapped session and retires the
    thread pool.  The wrapped session must not be closed behind the facade's
    back.

    ::

        async with repro.AsyncSession.open(dataset="lubm", scale=1) as session:
            results = await asyncio.gather(
                session.query("LQ1"), session.query("LQ2")
            )
    """

    def __init__(self, session: Session, *, max_concurrency: int = 4) -> None:
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        self.session = session
        self.max_concurrency = max_concurrency
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="repro-query"
        )
        self._closed = False

    @classmethod
    def open(cls, *, max_concurrency: int = 4, **open_kwargs) -> "AsyncSession":
        """``repro.open(...)`` wrapped into an :class:`AsyncSession`.

        Synchronous on purpose: dataset generation and partitioning dominate
        the cost and callers typically open once at startup, before the
        event loop is busy.
        """
        return cls(open_session(**open_kwargs), max_concurrency=max_concurrency)

    async def _run(self, fn, *args, **kwargs):
        if self._closed:
            raise RuntimeError("this AsyncSession is closed")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, partial(fn, *args, **kwargs))

    async def query(
        self,
        query: Union[str, SelectQuery],
        *,
        engine: Optional[str] = None,
        query_name: str = "",
    ) -> Result:
        """``Session.query`` off the event loop; safe to run concurrently."""
        return await self._run(
            self.session.query, query, engine=engine, query_name=query_name
        )

    async def query_many(
        self,
        queries: Iterable[Union[str, SelectQuery]],
        *,
        engine: Optional[str] = None,
    ) -> QueryBatch:
        """``Session.query_many`` off the event loop (amortized, in order).

        The batch itself executes sequentially with batch-level warmup; for
        concurrent execution, ``asyncio.gather`` over :meth:`query` calls.
        """
        return await self._run(self.session.query_many, list(queries), engine=engine)

    async def explain(self, query: Union[str, SelectQuery]) -> str:
        """``Session.explain`` off the event loop."""
        return await self._run(self.session.explain, query)

    @property
    def metrics(self) -> MetricsRegistry:
        return self.session.metrics

    @property
    def closed(self) -> bool:
        return self._closed

    async def close(self) -> None:
        """Close the wrapped session, then retire the submission pool."""
        if self._closed:
            return
        try:
            await self._run(self.session.close)
        finally:
            self._closed = True
            self._pool.shutdown(wait=False)

    async def __aenter__(self) -> "AsyncSession":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "closed" if self._closed else "open"
        return f"<AsyncSession {state} around {self.session!r}>"


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
            degraded = getattr(session, "degraded_queries", 0)
            body: Dict[str, Any] = {
                # Still HTTP 200 — the server is alive and serving; degraded
                # means some answers were partial after a site loss.
                "status": "degraded" if degraded else "ok",
                "dataset": session.dataset,
                "engine": session.default_engine,
                "executor": session.backend.name,
            }
            if degraded:
                body["degraded_queries"] = degraded
            self._respond_json(200, body)
        elif self.path == "/metrics":
            text = server.session.metrics.prometheus_text()
            self._respond(200, text.encode("utf-8"), "text/plain; version=0.0.4")
        else:
            self._respond_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        if self.path != "/query":
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
            self._respond_json(400, {"error": str(error)})
            return
        except Exception as error:  # pragma: no cover - engine-internal failures
            self._respond_json(500, {"error": f"{type(error).__name__}: {error}"})
            return
        statistics = result.statistics
        body = {
            "rows": result.to_dicts(),
            "num_rows": len(result),
            "engine": statistics.engine,
            "total_time_ms": round(statistics.total_time_ms, 3),
            "shipped_bytes": result.shipment.total_bytes if result.shipment else 0,
            "cache_hit": result.cache_hit,
            "degraded": result.degraded,
        }
        if result.degraded:
            body["missing_sites"] = result.missing_sites
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
                target=self._http.serve_forever, name="repro-serve", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (the CLI path)."""
        self._http.serve_forever()

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
