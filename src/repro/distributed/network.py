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
    """An immutable summary of one query's shipment, by stage and by message kind.

    Taken with :meth:`ShipmentLedger.snapshot`; this is what the session
    layer attaches to each :class:`~repro.api.Result`.
    """

    total_bytes: int
    total_messages: int
    bytes_by_stage: Dict[str, int]
    messages_by_stage: Dict[str, int]
    bytes_by_kind: Dict[str, int]


class ShipmentLedger:
    """The messages of one query execution.

    Opened with :meth:`MessageBus.ledger`.  While a ledger is active on a
    thread, every message that thread sends through the bus is recorded
    here, so concurrent queries over one cluster never see each other's
    shipment.

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
        bytes_by_stage: Dict[str, int] = {}
        messages_by_stage: Dict[str, int] = {}
        bytes_by_kind: Dict[str, int] = {}
        total = 0
        for message in self.messages:
            size = message.size_bytes
            total += size
            bytes_by_stage[message.stage] = bytes_by_stage.get(message.stage, 0) + size
            messages_by_stage[message.stage] = messages_by_stage.get(message.stage, 0) + 1
            bytes_by_kind[message.kind] = bytes_by_kind.get(message.kind, 0) + size
        return ShipmentSnapshot(
            total_bytes=total,
            total_messages=len(self.messages),
            bytes_by_stage=bytes_by_stage,
            messages_by_stage=messages_by_stage,
            bytes_by_kind=bytes_by_kind,
        )


@dataclass
class MessageBus:
    """Sizes every message sent between sites / the coordinator.

    The bus keeps no log of its own: a message is recorded only into the
    sending thread's open :class:`ShipmentLedger` (see :meth:`ledger`), and
    a send outside any ledger is sized for the caller's statistics and then
    dropped.  The bus is shared by every query on the cluster, so an
    internal lock guards the table of open ledgers.
    """

    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False, compare=False)
    #: Active per-query ledgers, a stack per sending thread (see :meth:`ledger`).
    _ledgers: Dict[int, List[ShipmentLedger]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def send(self, source: int, destination: int, kind: str, payload: Any, stage: str = "") -> int:
        """Charge one message to the sending thread's ledger; its estimated size in bytes."""
        size = estimate_size(payload)
        ledger = self._open_ledger()
        if ledger is not None:
            ledger.record(Message(source, destination, kind, size, stage))
        return size

    def broadcast(self, source: int, destinations: List[int], kind: str, payload: Any, stage: str = "") -> int:
        """Send the same payload to every destination; return the total bytes.

        The payload is sized once; each destination's message carries that size.
        """
        size = estimate_size(payload)
        ledger = self._open_ledger()
        if ledger is not None:
            for destination in destinations:
                ledger.record(Message(source, destination, kind, size, stage))
        return size * len(destinations)

    def _open_ledger(self) -> Optional[ShipmentLedger]:
        """The sending thread's innermost open ledger, if any."""
        with self._lock:
            stack = self._ledgers.get(threading.get_ident())
            return stack[-1] if stack else None

    @contextmanager
    def ledger(self) -> Iterator[ShipmentLedger]:
        """Scope this thread's sends to a fresh :class:`ShipmentLedger`.

        Nested ledgers stack (the innermost wins); other threads' sends, and
        this thread's sends outside the ``with`` block, never reach it.
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
