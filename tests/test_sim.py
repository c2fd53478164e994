"""Deterministic simulator: FIFO, seeded determinism, observable reordering,
stall and budget detection, and scheduler faults."""

import hashlib
import sys
import threading
import traceback

import pytest

from choreo import census_of, run_simulated
from choreo.errors import StepBudgetExceeded, TransportError
from choreo.transport import SimNet


def _ping_pong_mains(net, rounds=3):
    a, b = net.handle("a"), net.handle("b")

    def main_a():
        for i in range(rounds):
            a.send("b", bytes([i]))
            assert b"ack" + bytes([i]) == a.recv("b")

    def main_b():
        for i in range(rounds):
            assert bytes([i]) == b.recv("a")
            b.send("a", b"ack" + bytes([i]))

    return {"a": main_a, "b": main_b}


def test_fifo_and_completion():
    net = SimNet(["a", "b"], seed=5)
    errors = net.run(_ping_pong_mains(net))
    assert errors == {"a": None, "b": None}
    seqs = [m.seq for m in net.messages if m.sender == "a"]
    assert seqs == sorted(seqs) == list(range(len(seqs)))
    assert all(m.t_recv is not None for m in net.messages)


def test_same_seed_same_schedule():
    logs = []
    for _ in range(2):
        net = SimNet(["a", "b"], seed=77)
        net.run(_ping_pong_mains(net))
        logs.append([(m.sender, m.receiver, m.seq, m.t_send, m.t_deliver, m.t_recv)
                     for m in net.messages])
    assert logs[0] == logs[1]


def _two_senders(net):
    a, b, c = net.handle("a"), net.handle("b"), net.handle("c")

    def main_a():
        a.send("c", b"from-a")

    def main_b():
        b.send("c", b"from-b")

    def main_c():
        c.recv("a")
        c.recv("b")

    return {"a": main_a, "b": main_b, "c": main_c}


def test_cross_pair_reordering_across_seeds():
    orders = set()
    for seed in range(30):
        net = SimNet(["a", "b", "c"], seed=seed)
        assert net.run(_two_senders(net)) == {"a": None, "b": None, "c": None}
        order = tuple(
            m.sender for m in sorted(net.messages, key=lambda m: m.t_deliver)
        )
        orders.add(order)
    assert orders == {("a", "b"), ("b", "a")}


def test_stall_is_flagged():
    net = SimNet(["a", "b"], seed=0)

    def main_a():
        pass

    def main_b():
        net.handle("b").recv("a")

    errors = net.run({"a": main_a, "b": main_b})
    assert errors["a"] is None
    assert isinstance(errors["b"], StepBudgetExceeded)


def test_step_budget_trips():
    net = SimNet(["a", "b"], seed=0, step_budget=10)
    a, b = net.handle("a"), net.handle("b")

    def main_a():
        for i in range(100):
            a.send("b", b"x")
            a.recv("b")

    def main_b():
        for i in range(100):
            b.recv("a")
            b.send("a", b"x")

    errors = net.run({"a": main_a, "b": main_b})
    assert any(isinstance(e, StepBudgetExceeded) for e in errors.values())


def test_budget_error_is_raised_per_endpoint():
    # every stuck endpoint gets its own error with the same text, so one
    # endpoint's traceback never lists another endpoint's frames
    net = SimNet(["a", "b"], seed=0, step_budget=4)
    errors = net.run(_ping_pong_mains(net, rounds=50))
    assert all(isinstance(e, StepBudgetExceeded) for e in errors.values())
    assert errors["a"] is not errors["b"]
    assert str(errors["a"]) == str(errors["b"])
    frames = [f.f_code.co_name for f, _ in traceback.walk_tb(errors["a"].__traceback__)]
    assert "main_a" in frames and "main_b" not in frames


def test_unknown_routes_rejected():
    net = SimNet(["a", "b"], seed=0)
    with pytest.raises(TransportError):
        net.handle("nobody")
    a = net.handle("a")

    def main_a():
        a.send("zzz", b"x")

    def main_b():
        pass

    errors = net.run({"a": main_a, "b": main_b})
    assert isinstance(errors["a"], TransportError)


def test_run_simulated_determinism():
    from choreo.examples import build_example

    ex = build_example("kvs-enclave")
    first = run_simulated(ex.choreography, ex.census, ex.args, seed=9, inputs=ex.inputs)
    second = run_simulated(ex.choreography, ex.census, ex.args, seed=9, inputs=ex.inputs)
    assert first.serialize() == second.serialize()
    assert [m.t_deliver for m in first.messages] == [m.t_deliver for m in second.messages]
    for name in ex.census.names:
        assert first.result_view(name) == second.result_view(name)


def _schedule_digest_inputs():
    from choreo.examples import build_example
    from choreo.protocols import gmw as G
    from choreo.protocols.kvs import Get, Put

    for n in (3, 8, 16):
        last = f"p{n}"
        circuit = G.XorGate(
            G.AndGate(G.InputWire("p1"), G.XorGate(G.InputWire("p2"), G.InputWire(last))),
            G.LitWire(True),
        )
        inputs = {"p1": [True], "p2": [False], last: [True]}
        yield build_example("gmw", circuit=circuit, parties=n, inputs=inputs), 100 + n
    script = [Put("a", 1), Get("a"), Put("b", 2), Get("b"), Get("zz")]
    yield build_example("kvs-poly", backups=3, script=script), 11


def test_seeded_schedules_are_pinned():
    # One digest over the full delivery schedule (send, deliver and receive
    # times of every message) and the serialized report of seeded simulated
    # runs.  Any change to the scheduler that alters a seeded interleaving
    # changes this digest.
    h = hashlib.sha256()
    for ex, seed in _schedule_digest_inputs():
        report = run_simulated(
            ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs
        )
        report.require_success()
        for m in report.messages:
            h.update(repr((m.sender, m.receiver, m.seq, m.t_send, m.t_deliver, m.t_recv)).encode())
        h.update(report.serialize().encode())
    assert h.hexdigest() == (
        "366591eca3af5a7fcd6166526828244f2a3b4dcd14448926e728a5d8ae40b28b"
    )


def _stalled(net):
    def main_a():
        pass

    def main_b():
        net.handle("b").recv("a")

    return {"a": main_a, "b": main_b}


def _failing_runs():
    """(message log, errors by endpoint) of seeded runs that end in a stall,
    a blown step budget, a crash followed by a stall, or the negative
    control."""
    from choreo.errors import CommitmentFailed
    from choreo.examples import build_example
    from choreo.protocols.lottery import Tamper

    def crash_then_stall(b, args):
        def maybe_boom(loc, un):
            if loc.name == "b":
                raise CommitmentFailed("nope")
            return 0

        b.parallel(b.everyone(), maybe_boom)
        v = b.locally(b.member("b"), lambda un: 1)
        return b.multicast(b.member("b"), b.subset(["a"]), v)

    tampered = build_example("lottery", tamper=Tamper("server2", "draw"))
    broken = build_example("broken-pair")
    for seed in (0, 1, 2):
        net = SimNet(["a", "b"], seed=seed)
        yield net.messages, net.run(_stalled(net))
        net = SimNet(["a", "b"], seed=seed, step_budget=12)
        yield net.messages, net.run(_ping_pong_mains(net, rounds=50))
        for chor, census, args, inputs in (
            (crash_then_stall, census_of(["a", "b", "c"]), None, None),
            (tampered.choreography, tampered.census, tampered.args, tampered.inputs),
            (broken.choreography, broken.census, broken.args, None),
        ):
            report = run_simulated(chor, census, args, seed=seed, inputs=inputs)
            errors = {n: log.error for n, log in report.endpoints.items()}
            yield report.messages, errors


def test_failing_run_schedules_are_pinned():
    # One digest over the message log and every endpoint's error of seeded
    # runs that fail: the stall, step-budget and crash paths of the scheduler
    # must keep their interleavings, not only the successful runs.
    h = hashlib.sha256()
    for messages, errors in _failing_runs():
        for m in messages:
            h.update(repr((m.sender, m.receiver, m.seq, m.t_send, m.t_deliver, m.t_recv)).encode())
        for name in sorted(errors):
            err = errors[name]
            h.update(repr((name, type(err).__name__, str(err))).encode())
    assert h.hexdigest() == (
        "9f525ae43798991ebf5c549c801382bc5a0692c035b89fe2e68619f9b21d323c"
    )


@pytest.mark.parametrize("shape", ["clean", "stalled", "over-budget"])
def test_run_leaves_no_threads_behind(shape):
    before = set(threading.enumerate())
    if shape == "clean":
        net = SimNet(["a", "b"], seed=5)
        errors = net.run(_ping_pong_mains(net))
        assert errors == {"a": None, "b": None}
    elif shape == "stalled":
        net = SimNet(["a", "b"], seed=0)
        errors = net.run(_stalled(net))
        assert isinstance(errors["b"], StepBudgetExceeded)
    else:
        net = SimNet(["a", "b"], seed=0, step_budget=4)
        errors = net.run(_ping_pong_mains(net, rounds=50))
        assert any(isinstance(e, StepBudgetExceeded) for e in errors.values())
    assert [t for t in threading.enumerate() if t not in before] == []


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_scheduler_fault_reaches_run(k):
    # A step that raises, here the k-th draw of the PRNG, must end the run
    # with a TransportError and leave no task thread waiting for the baton.
    before = set(threading.enumerate())
    net = SimNet(["a", "b"], seed=5)
    choice, calls = net._rng.choice, []

    def faulty(seq):
        calls.append(seq)
        if len(calls) == k:
            raise RuntimeError("injected scheduler fault")
        return choice(seq)

    net._rng.choice = faulty
    outcome = []

    def runner():
        try:
            outcome.append(net.run(_ping_pong_mains(net)))
        except TransportError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "run() hung after a scheduler fault"
    assert isinstance(outcome[0], TransportError)
    assert isinstance(outcome[0].__cause__, RuntimeError)
    assert [t for t in threading.enumerate() if t not in before] == []


def test_handoff_holds_under_frequent_thread_switches():
    # Eight task threads on fewer cores, with the interpreter switching
    # threads every 10 µs: if a thread other than the baton holder ever ran a
    # scheduler step, the seeded schedule would come out different.
    ex, seed = list(_schedule_digest_inputs())[1]

    def schedule():
        report = run_simulated(ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs)
        log = [(m.sender, m.receiver, m.seq, m.t_send, m.t_deliver, m.t_recv)
               for m in report.messages]
        return log, report.serialize()

    expected = schedule()
    interval = sys.getswitchinterval()
    outcome = []
    sys.setswitchinterval(1e-5)
    try:
        thread = threading.Thread(target=lambda: outcome.append(schedule()), daemon=True)
        thread.start()
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive(), "the simulated run did not finish"
    assert outcome == [expected]
