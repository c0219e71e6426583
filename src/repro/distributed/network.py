"""Simulated cluster network with data-shipment accounting.

The real gStoreD prototype runs over MPI; this reproduction keeps everything
in one process but routes every inter-site exchange through a
:class:`MessageBus` so that the *data shipment* each stage causes can be
measured in bytes, exactly the quantity the paper's Tables I-III report.

Message payloads are measured by a structural size estimator instead of
pickling: the estimator charges realistic serialized sizes for RDF terms,
tuples and the framework's own messages (LEC features, bit vectors, local
partial matches), which keeps the measurement deterministic and cheap.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..rdf.terms import Term
from ..rdf.triples import Triple, TriplePattern

#: Site id used for the coordinator in message source/destination fields.
COORDINATOR = -1


@dataclass(frozen=True)
class NetworkModel:
    """Cost model translating shipped bytes/messages into transfer time.

    The simulation runs in one process, so the wall-clock it measures covers
    computation only; the response times the paper reports also include the
    time spent moving intermediate data between machines.  This model charges
    a per-message latency plus a bandwidth-proportional transfer time, and is
    deliberately simple and explicit — both parameters are calibration knobs
    of the simulation (defaults approximate a 1 Gb/s datacenter network).
    """

    latency_s: float = 0.0001
    bandwidth_bytes_per_s: float = 125_000_000.0

    def transfer_time(self, shipped_bytes: int, messages: int) -> float:
        """Seconds spent on the wire for ``messages`` totalling ``shipped_bytes``."""
        if shipped_bytes <= 0 and messages <= 0:
            return 0.0
        return messages * self.latency_s + shipped_bytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class PlatformModel:
    """Per-stage overhead of the execution platform an engine runs on.

    The cloud-based comparison systems (S2RDF, CliqueSquare, S2X) execute
    every query as a sequence of Spark/Hadoop/GraphX stages; each stage pays
    scheduling, task-launch and shuffle-materialization overhead that native
    MPI engines (gStoreD, DREAM) do not.  The per-stage constant below is the
    scaled-down stand-in for that overhead (real deployments measure hundreds
    of milliseconds to seconds per stage).
    """

    stage_overhead_s: float = 0.0

    def stage_cost(self, stages: int = 1) -> float:
        return self.stage_overhead_s * max(stages, 0)


#: Native engines (gStoreD, DREAM): no platform overhead beyond the network.
NATIVE_PLATFORM = PlatformModel(0.0)
#: Spark SQL-style stages (S2RDF).
SPARK_SQL_PLATFORM = PlatformModel(0.050)
#: MapReduce-style stages (CliqueSquare).
MAPREDUCE_PLATFORM = PlatformModel(0.080)
#: Graph-parallel supersteps (S2X).
GRAPH_BSP_PLATFORM = PlatformModel(0.030)


def estimate_size(payload: Any) -> int:
    """Estimate the serialized size of ``payload`` in bytes.

    RDF terms are charged their N3 text length; containers are charged the
    sum of their elements plus a small framing overhead; objects exposing a
    ``shipment_size()`` method (LEC features, local partial matches, bit
    vectors, result sets, bindings) delegate to it.  No engine's payload reaches
    the ``repr`` fallback at the end; it exists for foreign payload types.
    """
    if payload is None:
        return 1
    if hasattr(payload, "shipment_size"):
        return int(payload.shipment_size())
    if isinstance(payload, Term):
        return len(payload.n3())
    if isinstance(payload, (Triple, TriplePattern)):
        return len(payload.n3())
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return 4 + sum(estimate_size(k) + estimate_size(v) for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 4 + sum(estimate_size(item) for item in payload)
    # Fallback for foreign payloads: charge the repr length.
    return len(repr(payload))


@dataclass(frozen=True)
class Message:
    """One point-to-point message recorded by the bus."""

    source: int
    destination: int
    kind: str
    size_bytes: int
    stage: str


@dataclass(frozen=True)
class ShipmentSnapshot:
    """An immutable summary of the bus at one point in time.

    Taken with :meth:`MessageBus.snapshot` *before* the bus is reset between
    queries, so a finished query's shipment breakdown (by stage and by
    message kind) survives the next ``Cluster.reset_network()`` — this is
    what the session layer attaches to each :class:`~repro.api.Result`.
    """

    total_bytes: int
    total_messages: int
    bytes_by_stage: Dict[str, int]
    messages_by_stage: Dict[str, int]
    bytes_by_kind: Dict[str, int]


def _summarize(messages: List[Message]) -> ShipmentSnapshot:
    """Fold a message log into an immutable :class:`ShipmentSnapshot`."""
    bytes_by_stage: Dict[str, int] = {}
    messages_by_stage: Dict[str, int] = {}
    bytes_by_kind: Dict[str, int] = {}
    total = 0
    for message in messages:
        total += message.size_bytes
        bytes_by_stage[message.stage] = bytes_by_stage.get(message.stage, 0) + message.size_bytes
        messages_by_stage[message.stage] = messages_by_stage.get(message.stage, 0) + 1
        bytes_by_kind[message.kind] = bytes_by_kind.get(message.kind, 0) + message.size_bytes
    return ShipmentSnapshot(
        total_bytes=total,
        total_messages=len(messages),
        bytes_by_stage=bytes_by_stage,
        messages_by_stage=messages_by_stage,
        bytes_by_kind=bytes_by_kind,
    )


class ShipmentLedger:
    """Message accounting scoped to one query execution.

    Opened with :meth:`MessageBus.ledger`.  While a ledger is active on a
    thread, every message that thread sends through the bus is recorded here
    *instead of* the bus's global log, so concurrent queries over one cluster
    never see each other's shipment — and never need the global
    ``reset()``/``snapshot()`` window that made back-to-back accounting racy.

    A ledger is thread-confined by construction: the bus routes a send to the
    ledger only from the thread that opened it, and engines issue every send
    from the serial merge on the thread driving ``execute()`` (see
    ``docs/execution.md``).  No lock is needed.
    """

    __slots__ = ("messages",)

    def __init__(self) -> None:
        self.messages: List[Message] = []

    def record(self, message: Message) -> None:
        self.messages.append(message)

    @property
    def total_bytes(self) -> int:
        return sum(message.size_bytes for message in self.messages)

    @property
    def total_messages(self) -> int:
        return len(self.messages)

    def snapshot(self) -> ShipmentSnapshot:
        """Summarize the ledger into an immutable :class:`ShipmentSnapshot`."""
        return _summarize(self.messages)


@dataclass
class MessageBus:
    """Records every message sent between sites / the coordinator.

    The bus is shared by every query on the cluster, so concurrent queries
    (each on its own thread) may send at once; an internal lock keeps the
    message log and its derived counters consistent.  (The engines issue
    their sends from the deterministic site-order merge, so the *order* of
    one query's messages is fixed.)
    """

    messages: List[Message] = field(default_factory=list)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False, compare=False)
    #: Active per-query ledgers, a stack per sending thread (see
    #: :meth:`ledger`); guarded by ``_lock`` like the global log.
    _ledgers: Dict[int, List[ShipmentLedger]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def send(self, source: int, destination: int, kind: str, payload: Any, stage: str = "") -> int:
        """Record a message and return its estimated size in bytes.

        When the sending thread has an open :class:`ShipmentLedger` (see
        :meth:`ledger`) the message is charged to that ledger instead of the
        global log, scoping the accounting to the query that opened it.
        """
        size = estimate_size(payload)
        self._log(Message(source, destination, kind, size, stage))
        return size

    def broadcast(self, source: int, destinations: List[int], kind: str, payload: Any, stage: str = "") -> int:
        """Send the same payload to every destination; return the total bytes.

        The payload is sized once; each destination's message carries that size.
        """
        size = estimate_size(payload)
        for destination in destinations:
            self._log(Message(source, destination, kind, size, stage))
        return size * len(destinations)

    def _log(self, message: Message) -> None:
        """Charge ``message`` to the sending thread's open ledger, else the global log."""
        with self._lock:
            stack = self._ledgers.get(threading.get_ident())
            ledger = stack[-1] if stack else None
            if ledger is None:
                self.messages.append(message)
        if ledger is not None:
            ledger.record(message)

    @contextmanager
    def ledger(self) -> Iterator[ShipmentLedger]:
        """Scope this thread's sends to a fresh :class:`ShipmentLedger`.

        Nested ledgers stack (the innermost wins); other threads' sends — and
        this thread's sends outside the ``with`` block — keep hitting the
        global log, so engine-level callers that read the bus directly are
        unaffected.
        """
        opened = ShipmentLedger()
        ident = threading.get_ident()
        with self._lock:
            self._ledgers.setdefault(ident, []).append(opened)
        try:
            yield opened
        finally:
            with self._lock:
                stack = self._ledgers.get(ident, [])
                if opened in stack:
                    stack.remove(opened)
                if not stack:
                    self._ledgers.pop(ident, None)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(message.size_bytes for message in self.messages)

    @property
    def total_messages(self) -> int:
        with self._lock:
            return len(self.messages)

    def bytes_for_stage(self, stage: str) -> int:
        with self._lock:
            return sum(m.size_bytes for m in self.messages if m.stage == stage)

    def messages_for_stage(self, stage: str) -> int:
        with self._lock:
            return sum(1 for m in self.messages if m.stage == stage)

    def bytes_by_kind(self) -> Dict[str, int]:
        with self._lock:
            totals: Dict[str, int] = {}
            for message in self.messages:
                totals[message.kind] = totals.get(message.kind, 0) + message.size_bytes
            return totals

    def snapshot(self) -> ShipmentSnapshot:
        """Summarize the current log into an immutable :class:`ShipmentSnapshot`."""
        with self._lock:
            messages = list(self.messages)
        return _summarize(messages)

    def reset(self) -> None:
        with self._lock:
            self.messages.clear()


class StageTimer:
    """Context-manager helper to time site / coordinator work within a stage.

    Each accumulation into the table happens under a lock, so a timer
    recorded into from several threads loses no sample; the per-``(stage,
    site_id)`` keys never collide between sites.
    """

    def __init__(self) -> None:
        self._elapsed: Dict[Tuple[str, int], float] = {}
        self._lock = threading.Lock()

    @contextmanager
    def measure(self, stage: str, site_id: int = COORDINATOR) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record(stage, site_id, time.perf_counter() - started)

    def record(self, stage: str, site_id: int, elapsed_s: float) -> None:
        """Accumulate an externally measured duration for ``(stage, site_id)``.

        Used by the fan-out: the site-task runner measures each handler's
        wall-clock and the engine's serial merge records the samples here.
        """
        key = (stage, site_id)
        with self._lock:
            self._elapsed[key] = self._elapsed.get(key, 0.0) + elapsed_s

    def elapsed(self, stage: str, site_id: int = COORDINATOR) -> float:
        with self._lock:
            return self._elapsed.get((stage, site_id), 0.0)

    def site_times(self, stage: str) -> Dict[int, float]:
        with self._lock:
            return {
                site_id: seconds
                for (stage_name, site_id), seconds in self._elapsed.items()
                if stage_name == stage and site_id != COORDINATOR
            }

    def reset(self) -> None:
        """Forget every accumulated sample (used between benchmark runs)."""
        with self._lock:
            self._elapsed.clear()
