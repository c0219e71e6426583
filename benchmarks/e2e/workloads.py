"""The four workloads: what they open, what one pass sends, how answers are checked.

A *pass* is one trip through the workload's operations in a seed-fixed order.
Reads are sent as SPARQL text (parsing is on the measured path); every answer
is compared with the centralized engine's answer to the same text.  Every
session is opened with :data:`OPEN_OPTIONS` spelled out, so a later change of
a default cannot pass for a speed-up.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import repro

from common import REFERENCE_MS, SRC, WORK_DIR, canonical, load_query, reference_ms, timed

OPEN_OPTIONS = dict(sites=6, partitioner="hash", executor="serial", result_cache=0)

#: Constants the dataset's own LQ4/LQ5 use; the drift guard instantiates the
#: templates with them before comparing against ``session.queries``.
TEMPLATE_DEFAULTS = {"LQ4": (0, 0), "LQ5": (0, 1)}

SERVER_START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Read:
    """One query of a pass."""

    name: str  #: the query's fixture (``LQ4`` whatever its constants)
    target: str  #: label of the session that answers it
    text: str  #: the SPARQL text sent
    expect: str  #: key of the expected answer (name + constants + graph state)
    #: What its latency is pooled under: the name, or name + graph state where
    #: the state decides the cost (a median over two modes would flip between them).
    kind: str
    operation = "read"


@dataclass(frozen=True)
class Update:
    """One ``Session.update`` of a pass."""

    name: str
    target: str
    add: tuple = ()
    remove: tuple = ()
    operation = "update"

    @property
    def kind(self) -> str:
        return self.name


Op = Union[Read, Update]


@dataclass
class ReadOutcome:
    """What one executed read reports back to the pass runner."""

    ms: float
    rows: Optional[List[Dict[str, str]]]  #: ``None``: refused or failed
    modelled_ms: float = 0.0
    shipped_bytes: int = 0
    #: The part of ``ms`` that is a timer's and not the CPU's: reported as
    #: measured, while the rest is reported at the reference host speed.
    fixed_ms: float = 0.0
    #: Variant-specific extras (the untraced ``Result``, replay counters, body size).
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class Sample:
    """One attempted operation of the timed phase."""

    pass_id: Tuple[int, int]  #: (client, pass index)
    name: str
    kind: str  #: ``read`` or ``update``
    ms: float  #: latency, its CPU-bound part at the reference host speed (× ``host``)
    ok: bool
    modelled_ms: float = 0.0  #: always at the reference host speed
    shipped_bytes: int = 0
    #: Reference speed over the host's speed around this operation.
    host: float = 1.0
    extra: Dict[str, object] = field(default_factory=dict)


ReadFn = Callable[["Workload", Read], ReadOutcome]


class ServerStartError(RuntimeError):
    """``repro serve`` did not come up; the run reports every operation failed."""


def query_op(workload: "Workload", read: Read, keep_result: bool = False) -> ReadOutcome:
    """The untraced in-process operation: ``Session.query(text)`` + ``to_dicts()``.

    The answer is decoded inside the timed region — a caller that never looks
    at its rows has not finished the request.  The ``Result`` is handed back
    only on request, so the timed phase does not hoard every answer it got.
    """
    session = workload.sessions[read.target]
    started = time.perf_counter()
    result = session.query(read.text)
    rows = result.to_dicts()
    ms = (time.perf_counter() - started) * 1e3
    return ReadOutcome(
        ms,
        rows,
        result.statistics.total_time_ms,
        result.shipment.total_bytes,
        extra={"result": result} if keep_result else {},
    )


#: One triple of each predicate is removed and re-added per pass: every
#: adjacency the three reads of ``update_query`` use, and two they do not.  So
#: every seed invalidates the same structures, and seeds differ only in which
#: triple of a predicate they take.
BATCH_PREDICATES = (
    "type", "memberOf", "undergraduateDegreeFrom", "emailAddress", "subOrganizationOf",
    "publicationAuthor", "name", "worksFor", "takesCourse", "advisor",
)  # fmt: skip


def draw_batch(graph, seed: int) -> tuple:
    """The seed's update batch: one LUBM triple per :data:`BATCH_PREDICATES` entry."""
    by_predicate: Dict[str, list] = defaultdict(list)
    for triple in sorted(graph, key=lambda triple: triple.n3()):
        by_predicate[triple.predicate.n3().rstrip(">").rsplit("#", 1)[-1]].append(triple)
    rng = random.Random(seed)
    return tuple(rng.choice(by_predicate[name]) for name in BATCH_PREDICATES)


def instantiate(name: str, constants: Optional[Tuple[int, int]] = None) -> str:
    """A query's text; templates get ``constants`` (default: the dataset's own)."""
    text = load_query(name)
    if name in TEMPLATE_DEFAULTS:
        university, department = constants if constants is not None else TEMPLATE_DEFAULTS[name]
        text = text.replace("{university}", str(university)).replace("{department}", str(department))
    return text


class Workload:
    """Shared flow: set up (open + warm up), derive the oracle, run passes, tear down."""

    name = ""
    #: ``(session label, dataset, scale)``; ``None`` scale is the dataset default.
    datasets: Tuple[Tuple[str, str, Optional[int]], ...] = ()
    warmup_passes = 1
    #: Passes after which ``pass_ops`` repeats.
    distinct_passes = 1
    #: The store file of a store-backed workload.
    store_path: Optional[Path] = None

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.sessions: Dict[str, repro.Session] = {}
        self.expected: Dict[str, list] = {}
        self.first_error: Optional[str] = None
        if smoke:
            self.warmup_passes = 1

    def scale(self, label: str) -> Optional[int]:
        for known, _, scale in self.datasets:
            if known == label:
                return 1 if self.smoke and scale is not None else scale
        raise KeyError(label)

    # -- set-up ----------------------------------------------------------
    def open(self) -> None:
        for label, dataset, _ in self.datasets:
            self.sessions[label] = repro.open(
                dataset=dataset, scale=self.scale(label), **OPEN_OPTIONS
            )

    def setup(self) -> float:
        """Everything ``setup_s`` covers after the import: open, then warm-up passes.

        Returns the seconds it took, each step scaled by the host's speed
        around it.  The warm-up fills lazy adjacency, statistics and plan
        caches; its answers are not checked (the oracle does not exist yet).
        """
        _, ms = timed(self.open)
        for index in range(self.warmup_passes):
            ms += timed(lambda: run_pass(self, index, query_op, []))[1]
        return ms / 1e3

    def teardown(self) -> None:
        for session in self.sessions.values():
            session.close()
        self.sessions.clear()

    # -- operations ------------------------------------------------------
    def pass_ops(self, index: int, client: int = 0) -> Sequence[Op]:
        raise NotImplementedError

    # -- correctness -----------------------------------------------------
    def check_fixtures(self) -> None:
        """Drift guard: each fixture text still means the dataset's own query."""
        for op in self.pass_ops(0):
            if not isinstance(op, Read):
                continue
            session = self.sessions[op.target]
            ours = session.query(instantiate(op.name), engine="centralized")
            theirs = session.query(op.name, engine="centralized")
            if ours.sorted_rows() != theirs.sorted_rows():
                raise RuntimeError(
                    f"queries/{op.name}.sparql no longer matches the dataset's {op.name}"
                )

    def oracle(self) -> Dict[str, list]:
        """Expected answer per (query, constants, graph state), from ``centralized``.

        Walks the distinct passes applying their updates, so a workload that
        mutates the graph gets one expectation per state it reads in.
        """
        expected: Dict[str, list] = {}
        for index in range(self.distinct_passes):
            for op in self.pass_ops(index):
                session = self.sessions[op.target]
                if isinstance(op, Update):
                    session.update(add=op.add, remove=op.remove)
                elif op.expect not in expected:
                    answer = session.query(op.text, engine="centralized")
                    expected[op.expect] = canonical(answer.to_dicts())
        return expected

    def prepare(self) -> None:
        """Untimed, after set-up: drift guard, then the oracle."""
        self.check_fixtures()
        self.expected = self.oracle()

    def oracle_stable(self) -> bool:
        """Re-derive the oracle after the timed phase: the graph is where it started."""
        return self.oracle() == self.expected

    def is_correct(self, read: Read, rows: Optional[List[Dict[str, str]]]) -> bool:
        return rows is not None and canonical(rows) == self.expected.get(read.expect)

    def note_error(self) -> None:
        """Keep the first traceback of a failed operation for the report."""
        if self.first_error is None:
            self.first_error = traceback.format_exc()
            print(self.first_error, file=sys.stderr)

    # -- measurement -----------------------------------------------------
    def timed_phase(self, seconds: float) -> Tuple[List[Sample], float]:
        """Closed loop, one client: whole passes until ``seconds`` have gone."""
        samples: List[Sample] = []
        deadline = time.perf_counter() + seconds
        wall_s = 0.0
        index = 0
        while time.perf_counter() < deadline:
            wall_s += run_pass(self, index, query_op, samples)
            index += 1
        return samples, wall_s

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that holds the session."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(
    workload: Workload,
    index: int,
    read: ReadFn,
    samples: List[Sample],
    client: int = 0,
) -> float:
    """Run pass ``index``, appending one :class:`Sample` per attempted operation.

    The host's speed is sampled before the first operation and after each
    one; an operation's times are scaled by the mean of the two samples around
    it.  Returns the pass's wall seconds — without the reference loops, the
    client's own checking scaled like the operations — which is what
    throughput divides by.

    An operation that raises is a failed operation, not a failed run: the
    loop is the boundary that must keep counting.
    """
    pass_started = time.perf_counter()
    before = reference_ms()
    references_ms = before
    measured_ms = scaled_ms = 0.0
    hosts = []
    for op in workload.pass_ops(index, client):
        outcome = ReadOutcome(0.0, None)
        ok = False
        started = time.perf_counter()
        try:
            if isinstance(op, Update):
                applied = workload.sessions[op.target].update(add=op.add, remove=op.remove)
                ok = applied.added == len(op.add) and applied.removed == len(op.remove)
                outcome.ms = (time.perf_counter() - started) * 1e3
            else:
                outcome = read(workload, op)
                ok = workload.is_correct(op, outcome.rows)
        except Exception:
            workload.note_error()
        after = reference_ms()
        references_ms += after
        host = REFERENCE_MS / ((before + after) / 2)
        before = after
        hosts.append(host)
        fixed_ms = min(outcome.fixed_ms, outcome.ms)
        ms = fixed_ms + (outcome.ms - fixed_ms) * host
        measured_ms += outcome.ms
        scaled_ms += ms
        samples.append(
            Sample(
                (client, index),
                op.kind,
                op.operation,
                ms,
                ok,
                outcome.modelled_ms * host,
                outcome.shipped_bytes,
                host,
                outcome.extra,
            )
        )
    between_ms = (time.perf_counter() - pass_started) * 1e3 - references_ms - measured_ms
    return (between_ms * statistics.mean(hosts) + scaled_ms) / 1e3


def _reads(target: str, names: Sequence[str]) -> List[Read]:
    return [Read(name, target, instantiate(name), name, name) for name in names]


class MultiJoin(Workload):
    """Non-star joins on LUBM 3, YAGO2 and BTC, one client.

    The paper's own pipeline does the work: partial evaluation and the
    coordinator's LEC pruning dominate, assembly follows, ``store`` and
    ``api`` are noise.  YQ3 brings a skewed site; YAGO2 and BTC keep an
    optimisation from overfitting LUBM.
    """

    name = "multijoin"
    datasets = (("lubm", "lubm", 3), ("yago2", "yago2", None), ("btc", "btc", None))
    warmup_passes = 2
    QUERIES = {
        "lubm": ("LQ1", "LQ3", "LQ6", "LQ7"),
        "yago2": ("YQ1", "YQ2", "YQ3", "YQ4"),
        "btc": ("BQ4", "BQ5", "BQ6", "BQ7"),
    }

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.order = [read for target, names in self.QUERIES.items() for read in _reads(target, names)]
        self.rng.shuffle(self.order)

    def pass_ops(self, index: int, client: int = 0) -> Sequence[Op]:
        return self.order


class Star(Workload):
    """Star queries on LUBM 8 and BTC, one client, constants rotated per pass.

    The star shortcut skips candidate exchange, pruning and assembly, so the
    time is the ``store`` kernel plus the fixed per-query cost; a change to
    ``core`` should not move it.  LQ4/LQ5 walk ``PAIRS`` seed-drawn
    (university, department) pairs: the plan cache hits by shape while no
    exact text repeats from one pass to the next.
    """

    name = "star"
    datasets = (("lubm", "lubm", 8), ("btc", "btc", None))
    warmup_passes = 20
    PAIRS = 8

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        # The generator makes 2 universities per scale unit, 3 departments each.
        departments = [
            (university, department)
            for university in range(2 * self.scale("lubm"))
            for department in range(3)
        ]
        pairs = self.rng.sample(departments, min(self.PAIRS, len(departments)))
        self.distinct_passes = len(pairs)
        self.passes: List[List[Read]] = []
        for pair in pairs:
            reads = _reads("lubm", ("LQ2",)) + _reads("btc", ("BQ1", "BQ2", "BQ3"))
            for name in ("LQ4", "LQ5"):
                reads.append(
                    Read(name, "lubm", instantiate(name, pair), f"{name}@{pair[0]}.{pair[1]}", name)
                )
            self.passes.append(reads)
        order = list(range(len(self.passes[0])))
        self.rng.shuffle(order)
        self.passes = [[reads[position] for position in order] for reads in self.passes]

    def pass_ops(self, index: int, client: int = 0) -> Sequence[Op]:
        return self.passes[index % len(self.passes)]


class UpdateQuery(Workload):
    """Writes beside reads on a store-backed LUBM 3, one client.

    pass = remove the seed's batch of 10 triples → LQ2, LQ6, LQ3 → add them back → LQ2,
    LQ6, LQ3.  Journaling, in-place encoding patches, adjacency invalidation
    and planner statistics are all on the path, and the graph version changes
    every half-pass, so a version-keyed cache never hits.
    """

    name = "update_query"
    datasets = (("lubm", "lubm", 3),)
    warmup_passes = 3
    READS = ("LQ2", "LQ6", "LQ3")

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.store_path = WORK_DIR / f"update_query-{os.getpid()}.sqlite"
        self.ops: List[Op] = []

    def open(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.store_path.unlink(missing_ok=True)
        session = repro.open(
            dataset="lubm", scale=self.scale("lubm"), path=str(self.store_path), **OPEN_OPTIONS
        )
        self.sessions["lubm"] = session
        batch = draw_batch(session.graph, self.seed)
        self.ops = []
        for update, state in (
            (Update("update.remove", "lubm", remove=batch), "removed"),
            (Update("update.add", "lubm", add=batch), "added"),
        ):
            self.ops.append(update)
            self.ops += [
                Read(n, "lubm", instantiate(n), f"{n}@{state}", f"{n}@{state}") for n in self.READS
            ]

    def pass_ops(self, index: int, client: int = 0) -> Sequence[Op]:
        return self.ops

    def teardown(self) -> None:
        super().teardown()
        # The store file and whatever SQLite left beside it; the directory
        # goes too once no other run has files in it.
        for leftover in WORK_DIR.glob(self.store_path.stem + ".*"):
            leftover.unlink()
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


class ServeMixed(Workload):
    """LQ1-LQ7 over HTTP against ``repro serve`` (LUBM 1) in a child process.

    ``CLIENTS`` closed-loop clients, one keep-alive connection each: the only
    workload where HTTP framing, admission and JSON encoding do most of the
    work, and where two queries contend for one interpreter lock.  Two
    connections cannot fill the admission queue, so any 429 is a failure.
    """

    name = "serve_mixed"
    datasets = (("lubm", "lubm", 1),)
    CLIENTS = 2
    FLOOR_PROBES = 7
    QUERIES = ("LQ1", "LQ2", "LQ3", "LQ4", "LQ5", "LQ6", "LQ7")

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.queries = _reads("lubm", self.QUERIES)
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self.floor_ms = 0.0
        self._connections: Dict[int, http.client.HTTPConnection] = {}

    def pass_ops(self, index: int, client: int = 0) -> Sequence[Op]:
        """Every client reshuffles every pass (a stream of its own per seed).

        Two fixed orders would lock in phase, and which queries then overlap
        would depend on the seed instead of averaging out within a run.
        """
        order = list(self.queries)
        random.Random(f"{self.seed}/{client}/{index}").shuffle(order)
        return order

    # -- server child ----------------------------------------------------
    def start_server(self) -> None:
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--dataset", "lubm", "--scale", str(self.scale("lubm")),
            "--sites", str(OPEN_OPTIONS["sites"]),
            "--partitioner", OPEN_OPTIONS["partitioner"],
            "--executor", OPEN_OPTIONS["executor"],
            "--port", "0", "--max-inflight", "4", "--max-queue", "16",
            "--result-cache", str(OPEN_OPTIONS["result_cache"]),
        ]  # fmt: skip
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(SRC), environment.get("PYTHONPATH")) if part
        )
        self.server = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=environment
        )
        # The CLI prints "serving LUBM on http://host:port (...)" once bound.
        ready, _, _ = select.select([self.server.stdout], [], [], SERVER_START_TIMEOUT_S)
        banner = self.server.stdout.readline() if ready else ""
        if "http://" not in banner:
            self.stop_server()
            raise ServerStartError(f"repro serve did not start: {banner!r}")
        self.port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop_server()
                raise ServerStartError("repro serve never answered /healthz")
            time.sleep(0.01)

    def stop_server(self) -> None:
        """Reap the child: terminate, wait, kill if it will not go."""
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()
        server, self.server = self.server, None
        if server is None:
            return
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def request(
        self, method: str, path: str, body: Optional[bytes] = None, client: int = 0
    ) -> Tuple[int, bytes, float]:
        """One request on the client's keep-alive connection: status, body, send → body read in ms."""
        connection = self._connections.get(client)
        if connection is None:
            connection = self._connections[client] = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = time.perf_counter()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            del self._connections[client]
            raise
        return response.status, payload, (time.perf_counter() - started) * 1e3

    def get(self, path: str) -> Tuple[int, bytes]:
        status, payload, _ = self.request("GET", path)
        return status, payload

    def http_op(self, read: Read, client: int = 0) -> ReadOutcome:
        """``POST /query``; all but the no-work floor of its latency counts as CPU-bound."""
        body = json.dumps({"query": read.text}).encode("utf-8")
        status, payload, ms = self.request("POST", "/query", body, client)
        if status != 200:
            return ReadOutcome(ms, None, fixed_ms=self.floor_ms, extra={"status": status})
        answer = json.loads(payload)
        return ReadOutcome(
            ms,
            answer["rows"],
            answer["total_time_ms"],
            answer["shipped_bytes"],
            fixed_ms=self.floor_ms,
            extra={"response_bytes": len(payload)},
        )

    # -- workload flow ---------------------------------------------------
    def setup(self) -> float:
        """spawn → ``/healthz`` 200 → one warm-up pass over HTTP → the no-work floor.

        The floor is what a request that computes nothing takes on a warm
        keep-alive connection (44 ms today: Nagle against a delayed ACK).  It
        is a kernel timer's, so it is reported as measured while the rest of
        a request's latency is scaled by the host's speed like in-process work;
        once the floor is gone, so is the exception.
        """
        started = time.perf_counter()
        self.start_server()
        for read in self.queries:
            self.http_op(read)
        self.floor_ms = statistics.median(
            self.request("GET", "/healthz")[2] for _ in range(self.FLOOR_PROBES)
        )
        return time.perf_counter() - started

    def prepare(self) -> None:
        # The oracle's in-process twin of the served dataset; not part of set-up.
        super().open()
        super().prepare()

    def teardown(self) -> None:
        self.stop_server()
        super().teardown()

    def timed_phase(self, seconds: float) -> Tuple[List[Sample], float]:
        """Closed loop, ``CLIENTS`` threads, one keep-alive connection each."""
        deadline = time.perf_counter() + seconds

        def client_loop(client: int) -> Tuple[List[Sample], float]:
            samples: List[Sample] = []
            wall_s = 0.0
            index = 0
            while time.perf_counter() < deadline:
                wall_s += run_pass(
                    self, index, lambda _, read: self.http_op(read, client), samples, client
                )
                index += 1
            return samples, wall_s

        with ThreadPoolExecutor(max_workers=self.CLIENTS) as pool:
            futures = [pool.submit(client_loop, client) for client in range(self.CLIENTS)]
            outcomes = [future.result() for future in futures]
        samples = [sample for client_samples, _ in outcomes for sample in client_samples]
        # The clients run side by side: the phase lasted what one of them did.
        return samples, statistics.mean(wall_s for _, wall_s in outcomes)

    def peak_rss_mb(self) -> float:
        """The server child's high-water mark (``VmHWM``)."""
        with open(f"/proc/{self.server.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def rejected_total(self) -> int:
        """``repro_admission_rejected_total`` as ``/metrics`` reports it."""
        _, text = self.get("/metrics")
        for line in text.decode("utf-8").splitlines():
            if line.startswith("repro_admission_rejected_total"):
                return int(float(line.split()[-1]))
        raise RuntimeError("no repro_admission_rejected_total in /metrics")


WORKLOADS = {cls.name: cls for cls in (MultiJoin, Star, ServeMixed, UpdateQuery)}
