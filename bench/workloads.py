"""The benchmark's three workloads.

Each is a closed loop from one process with one operation outstanding.  All
inputs come from the workload seed.  A workload object is built by its class
(which imports `choreo` and generates the inputs, the part of set-up that
`setup_s` times), warmed up once, then measured one or more times; every
measuring phase walks the same fixed work list from its start, so an
untraced and a traced phase run the same ops in the same order.

Outputs are checked after each op, outside its timed interval: against an
independent reference, and for the simulated and TCP workloads against a
centralized run of the same inputs.  Every mismatch is a failed op.  A speed
probe (`speed.py`) runs between ops, also outside their timed intervals.
"""

import hashlib
import importlib
import random
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from speed import Probe

# A session's requests, closed loop; PUT share is exact within a session.
KVS_KEYS = tuple(f"k{i}" for i in range(8))
KVS_PUT_SHARE = 0.3
# A TCP session that stalls fails within these bounds instead of the 30 s
# defaults of the transport.
RECV_TIMEOUT_S = 2.0
CONNECT_TIMEOUT_S = 2.0
SESSION_JOIN_S = 20.0
THREAD_GRACE_S = 0.1

# A gmw-oracle cycle takes one circuit in this many of each shape (and-gates,
# xor-gates, input wires) of the depth <= 2 population, at least one of each:
# 382 circuits, 2311 evaluations.  Every seed's cycle then has the same mix
# of shapes and costs about the same.
ORACLE_CYCLE_SHARE = 16

# Shapes (and-gates, xor-gates, input wires) of the depth-2 circuits in one
# gmw-sim-8 cycle.  An and-gate costs n(n-1) transfers, so op cost is
# multimodal in the gate count; one gate count keeps p50 and p90 inside a
# single mode, and a fixed profile makes every seed's circuit set cost about
# the same.
SIM_CIRCUIT_PROFILE = ((2, 1, 2), (2, 1, 3), (2, 1, 3), (2, 1, 3),
                       (2, 1, 4), (2, 1, 4), (2, 1, 4), (2, 1, 4))


@dataclass(frozen=True)
class Size:
    digest_ops: int  # ops (kvs: sessions) whose reports form the digest
    min_ops: int  # a phase runs at least this many ops (kvs: sessions)
    warm_ops: int
    session: int = 0  # kvs requests per session
    warm_session: int = 0


SIZES = {
    "gmw-oracle": {"full": Size(32, 200, 100), "tiny": Size(4, 4, 2)},
    # 100 ops support a p90 with 10 samples beyond it.
    "gmw-sim-8": {"full": Size(4, 100, 3), "tiny": Size(1, 2, 1)},
    "kvs-tcp": {"full": Size(1, 1, 1, session=1000, warm_session=200),
                "tiny": Size(1, 1, 1, session=20, warm_session=10)},
}


def derived(seed: int, label: str) -> random.Random:
    """An independent stream of the workload seed.  Kept apart from
    `choreo.seeding`, so that a change to the library's seeding does not
    change the benchmark's inputs."""
    digest = hashlib.sha256(f"bench|{seed}|{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class Phase:
    """What one measuring phase produced."""

    op_s: list = field(default_factory=list)  # every finished op, in order, raw
    started: list = field(default_factory=list)  # perf_counter at each op's start
    ok: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    probe: Probe = field(default_factory=Probe)
    counts: dict = field(default_factory=dict)  # report-derived layer counts
    threads_left: list = field(default_factory=list)  # kvs: one entry per session
    digest: object = field(default_factory=hashlib.sha256)
    problems: list = field(default_factory=list)

    def add(self, seconds: float, ok: bool, kind: str = "op", started: float = 0.0) -> None:
        self.attempted += 1
        self.failed += not ok
        self.op_s.append(seconds)
        self.started.append(started)
        self.ok.append(ok)
        self.kinds.append(kind)

    def scaled_s(self) -> list:
        """Every op's time at the probe's reference speed."""
        return [s * self.probe.factor(t) for s, t in zip(self.op_s, self.started)]

    def tally(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def latencies(self, kind: str | None = None, scaled: bool = True) -> list:
        """Times of the correct ops, of one kind or all."""
        times = self.scaled_s() if scaled else self.op_s
        rows = zip(times, self.ok, self.kinds)
        return [s for s, ok, k in rows if ok and (kind is None or k == kind)]

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def _records(report, attr: str) -> int:
    return sum(len(getattr(log, attr)) for log in report.endpoints.values())


class _GmwWorkload:
    """Shared loop of the two GMW workloads: one op is one `mpc` run."""

    name = ""
    parties: tuple = ()

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = SIZES[self.name][size]
        self.choreo = importlib.import_module("choreo")
        self.G = importlib.import_module("choreo.protocols.gmw")
        self.census = self.choreo.census_of(self.parties)
        self.chor = self.choreo.Choreography(lambda b, circuit: self.G.mpc(b, circuit))
        self.reference = self.eval_reference

    def close(self) -> None:
        pass

    def eval_reference(self, circuit, streams) -> bool:
        return self.G.eval_circuit(circuit, {p: deque(v) for p, v in streams.items()})

    def work(self, label: str):
        raise NotImplementedError

    def run_op(self, item):
        raise NotImplementedError

    def check(self, item, report, phase: Phase) -> bool:
        raise NotImplementedError

    def warm_up(self) -> None:
        items = self.work("warm-up")
        for _ in range(self.size.warm_ops):
            self.run_op(next(items))

    def measure(self, seconds: float, tracer=None, min_ops: int | None = None) -> Phase:
        """Run ops until `seconds` have passed and at least `min_ops` (by
        default the size's) are done."""
        phase = Phase()
        min_ops = self.size.min_ops if min_ops is None else min_ops
        deadline = time.perf_counter() + seconds
        hard_stop = deadline + 60.0
        for index, item in enumerate(self.work("measure")):
            now = time.perf_counter()
            if index >= min_ops and now >= deadline or now >= hard_stop:
                break
            phase.probe.maybe()
            if tracer is not None:
                tracer.op = index + 1
                tracer.active = True
            t0 = time.perf_counter()
            try:
                report = self.run_op(item)
            except Exception as exc:  # a crashed op is a failed op
                report = exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            if isinstance(report, Exception):
                phase.problem(f"op {index}: {report!r}")
                phase.add(t1 - t0, False, started=t0)
                continue
            if index < self.size.digest_ops:
                phase.digest.update(report.serialize().encode())
            phase.add(t1 - t0, self.check(item, report, phase), started=t0)
        return phase


class GmwOracle(_GmwWorkload):
    """`run_centralized` of GMW at 3 parties over a seeded cycle of the
    circuits of gate-depth <= 2, each with all its input assignments.  The
    cycle samples every shape of circuit in proportion to its share of the
    population, and repeats."""

    name = "gmw-oracle"
    parties = ("p1", "p2", "p3")

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        shapes = {}
        for circuit in self.G.circuits_up_to(2, self.parties):
            shapes.setdefault(_shape(self.G, circuit), []).append(circuit)
        rng = derived(seed, "circuits")
        self.cycle = []
        for shape in sorted(shapes):
            group = shapes[shape]
            self.cycle += rng.sample(group, max(1, round(len(group) / ORACLE_CYCLE_SHARE)))
        rng.shuffle(self.cycle)

    def work(self, label: str):
        rng = derived(self.seed, label)
        cycle = self.cycle if label == "measure" else self.cycle[::-1]
        while True:
            for circuit in cycle:
                for streams in self.G.input_assignments(circuit, self.parties):
                    yield circuit, streams, rng.getrandbits(32)

    def run_op(self, item):
        circuit, streams, op_seed = item
        return self.choreo.run_centralized(
            self.chor, self.census, circuit, seed=op_seed, inputs=streams
        )

    def check(self, item, report, phase: Phase) -> bool:
        circuit, streams, _ = item
        phase.tally("runtime.central.value_records", _records(report, "values"))
        phase.tally("runtime.central.branch_records", _records(report, "branches"))
        expected = self.reference(circuit, streams)
        got = [report.result_view(p) for p in self.parties] if report.ok else None
        if got != [expected] * len(self.parties):
            phase.problem(f"{self.G.circuit_to_text(circuit)} {streams}: {got} != {expected}")
            return False
        return True


class GmwSim8(_GmwWorkload):
    """`run_simulated` of GMW at 8 parties over a fixed, seeded set of
    depth-2 circuits with seeded inputs; each op has its own scheduler seed."""

    name = "gmw-sim-8"
    parties = tuple(f"p{i}" for i in range(1, 9))

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        rng = derived(seed, "circuits")
        self.circuits = []
        for shape in SIM_CIRCUIT_PROFILE:
            while True:
                circuit = self.G.sample_circuit(2, self.parties, rng)
                if _shape(self.G, circuit) == shape:
                    self.circuits.append(circuit)
                    break

    def work(self, label: str):
        rng = derived(self.seed, label)
        while True:
            for circuit in self.circuits:
                streams = {p: [] for p in self.parties}
                for owner in self.G.circuit_input_owners(circuit):
                    streams[owner].append(bool(rng.getrandbits(1)))
                yield circuit, streams, rng.getrandbits(32)

    def run_op(self, item):
        circuit, streams, op_seed = item
        return self.choreo.run_simulated(
            self.chor, self.census, circuit, seed=op_seed, inputs=streams
        )

    def check(self, item, report, phase: Phase) -> bool:
        circuit, streams, op_seed = item
        phase.tally("runtime.endpoint.value_records", _records(report, "values"))
        expected = self.reference(circuit, streams)
        central = self.choreo.run_centralized(
            self.chor, self.census, circuit, seed=op_seed, inputs=streams
        )
        where = f"{self.G.circuit_to_text(circuit)} seed {op_seed}"
        if not (report.ok and central.ok):
            phase.problem(f"{where}: errors {report.errors()} / {central.errors()}")
            return False
        for p in self.parties:
            if report.result_view(p) != expected:
                phase.problem(f"{where}: {p} got {report.result_view(p)}, want {expected}")
                return False
            if (report.result_view(p) != central.result_view(p)
                    or report.branch_outcomes(p) != central.branch_outcomes(p)):
                phase.problem(f"{where}: {p} differs from the centralized run")
                return False
        if len(report.messages) != len(central.messages):
            phase.problem(f"{where}: {len(report.messages)} messages, "
                          f"centralized {len(central.messages)}")
            return False
        return True


def _shape(G, circuit) -> tuple:
    """(and-gates, xor-gates, input wires) of a circuit."""

    def gates(c):
        if isinstance(c, (G.AndGate, G.XorGate)):
            (la, lx), (ra, rx) = gates(c.left), gates(c.right)
            return la + ra + isinstance(c, G.AndGate), lx + rx + isinstance(c, G.XorGate)
        return 0, 0

    return (*gates(circuit), len(G.circuit_input_owners(circuit)))


class _ClientClock:
    """The client's transport, wrapped to time each request from its send to
    `primary` until the response's `recv` from `primary` returns.  The speed
    probe runs before a request's clock starts."""

    def __init__(self, inner, probe: Probe, tracer=None):
        self._inner = inner
        self._probe = probe
        self._tracer = tracer
        self._start = 0.0
        self.started = []
        self.op_s = []

    def send(self, to: str, body: bytes) -> None:
        if to == "primary":
            self._probe.maybe()
            if self._tracer is not None:
                self._tracer.op += 1
            self._start = time.perf_counter()
            self.started.append(self._start)
        self._inner.send(to, body)

    def recv(self, frm: str) -> bytes:
        data = self._inner.recv(frm)
        if frm == "primary":
            self.op_s.append(time.perf_counter() - self._start)
        return data


class KvsTcp:
    """`kvs-enclave` over loopback TCP: per session, three `project_and_run`
    endpoints hosted as threads of this process with fresh `TcpTransport`s,
    serving a seeded script of GETs and ~30 % PUTs over a small key set."""

    name = "kvs-tcp"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = SIZES[self.name][size]
        self.choreo = importlib.import_module("choreo")
        self.kvs = importlib.import_module("choreo.protocols.kvs")
        self.examples = importlib.import_module("choreo.examples")
        self.transport = importlib.import_module("choreo.transport")
        self.names = ("client", "primary", "backup")
        self.reference = self.kvs.reference_responses
        # Bind and listen once, as every session does; `close` releases them.
        self._bound = self.open_transports()

    def close(self) -> None:
        transports, before = self._bound
        self.close_transports(transports, before, grace_s=0.0)

    def script(self, seed: int, index: int, length: int) -> list:
        rng = derived(seed, f"session-{index}")
        puts = round(length * KVS_PUT_SHARE)
        kinds = [True] * puts + [False] * (length - puts)
        rng.shuffle(kinds)
        return [self.kvs.Put(rng.choice(KVS_KEYS), rng.randrange(1 << 20)) if put
                else self.kvs.Get(rng.choice(KVS_KEYS)) for put in kinds]

    def open_transports(self):
        book = {n: f"127.0.0.1:{port}" for n, port in zip(self.names, _free_ports(3))}
        before = set(threading.enumerate())
        transports = {}
        try:
            for n in self.names:
                transports[n] = self.transport.TcpTransport(
                    n, book, recv_timeout=RECV_TIMEOUT_S, connect_timeout=CONNECT_TIMEOUT_S
                )
        except Exception:
            self.close_transports(transports, before)
            raise
        return transports, before

    def close_transports(self, transports: dict, before: set,
                         grace_s: float = THREAD_GRACE_S) -> int:
        """Close a session's transports and return how many of the threads
        they started are still alive afterwards.  Then wake each acceptor
        still blocked in `accept()` with one connection, so leaked threads do
        not pile up across sessions."""
        for t in transports.values():
            t.close()
        started = [t for t in threading.enumerate() if t not in before]
        grace = time.monotonic() + grace_s
        for t in started:
            t.join(max(0.0, grace - time.monotonic()))
        left = sum(t.is_alive() for t in started)
        if left:
            for t in transports.values():
                try:
                    socket.create_connection(("127.0.0.1", t.port), timeout=0.5).close()
                except OSError:
                    pass
            for t in started:
                t.join(1.0)
        return left

    def session(self, script: list, phase: Phase, tracer=None, digest: bool = False) -> None:
        ex = self.examples.build_example("kvs-enclave", script=script)
        try:
            transports, before = self.open_transports()
        except Exception as exc:  # a port race fails the session, no retry
            phase.problem(f"session set-up failed: {exc!r}")
            for req in script:
                phase.add(0.0, False, type(req).__name__.lower())
            return
        clock = _ClientClock(transports["client"], phase.probe, tracer)
        handles = {"client": clock, "primary": transports["primary"],
                   "backup": transports["backup"]}
        outcomes = {}

        def endpoint(name):
            try:
                outcomes[name] = self.choreo.project_and_run(
                    ex.choreography, ex.census, name, handles[name], ex.args,
                    seed=self.seed, inputs=ex.inputs,
                )
            except Exception as exc:  # recorded, counted as failed ops
                outcomes[name] = exc

        threads = [threading.Thread(target=endpoint, args=(n,), daemon=True)
                   for n in self.names]
        if tracer is not None:
            tracer.active = True
        for t in threads:
            t.start()
        give_up = time.monotonic() + SESSION_JOIN_S
        for t in threads:
            t.join(max(0.0, give_up - time.monotonic()))
        if tracer is not None:
            tracer.active = False
        phase.threads_left.append(self.close_transports(transports, before))

        ok = self.check_session(ex, script, outcomes, phase)
        if digest and ok:
            for name in self.names:
                phase.digest.update(outcomes[name][1].serialize().encode())
        want = self.reference(script)
        got = _responses(outcomes["client"][0]) if ok else None
        for i, req in enumerate(script):
            timed = i < len(clock.op_s)
            phase.add(clock.op_s[i] if timed else 0.0, ok and timed and got[i] == want[i],
                      type(req).__name__.lower(), clock.started[i] if timed else 0.0)
        if ok and got != want:
            phase.problem(f"responses differ from the reference at "
                          f"{sum(g != w for g, w in zip(got, want))} requests")

    def check_session(self, ex, script, outcomes, phase: Phase) -> bool:
        failed = {n: o for n, o in outcomes.items() if isinstance(o, Exception)}
        missing = [n for n in self.names if n not in outcomes]
        if failed or missing:
            phase.problem(f"session failed: {failed or ''} {missing or ''}")
            return False
        phase.tally("runtime.endpoint.value_records",
                    sum(_records(outcomes[n][1], "values") for n in self.names))
        central = self.choreo.run_centralized(
            ex.choreography, ex.census, ex.args, seed=self.seed, inputs=ex.inputs
        )
        if not central.ok:
            phase.problem(f"centralized run failed: {central.errors()}")
            return False
        for name in self.names:
            view, fragment = outcomes[name]
            if view != central.result_view(name):
                phase.problem(f"{name}: result differs from the centralized run")
                return False
            if fragment.branch_outcomes(name) != central.branch_outcomes(name):
                phase.problem(f"{name}: branch log differs from the centralized run")
                return False
        sent = sum(len(outcomes[n][1].messages) for n in self.names)
        if sent != len(central.messages):
            phase.problem(f"{sent} messages, centralized {len(central.messages)}")
            return False
        return True

    def warm_up(self) -> None:
        script = self.script(self.seed, -1, self.size.warm_session)
        self.session(script, Phase())

    def measure(self, seconds: float, tracer=None, min_ops: int | None = None) -> Phase:
        """Run whole sessions until `seconds` have passed and at least
        `min_ops` sessions (by default the size's) are done."""
        phase = Phase()
        min_ops = self.size.min_ops if min_ops is None else min_ops
        deadline = time.perf_counter() + seconds
        index = 0
        while index < min_ops or time.perf_counter() < deadline:
            self.session(self.script(self.seed, index, self.size.session), phase, tracer,
                         digest=index < self.size.digest_ops)
            index += 1
        return phase


def _free_ports(n: int) -> list:
    """n distinct free loopback ports.  The probe sockets are held open
    together; probing one at a time can hand out the same port twice."""
    probes = [socket.socket(socket.AF_INET, socket.SOCK_STREAM) for _ in range(n)]
    try:
        for probe in probes:
            probe.bind(("127.0.0.1", 0))
        return [probe.getsockname()[1] for probe in probes]
    finally:
        for probe in probes:
            probe.close()


def _responses(client_view) -> list:
    """The client's response list out of its result view."""
    for key, value in client_view["map"]:
        if key == "responses":
            return value["value"]
    raise KeyError("responses")


WORKLOADS = {cls.name: cls for cls in (GmwOracle, GmwSim8, KvsTcp)}
