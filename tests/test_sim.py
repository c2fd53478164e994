"""Deterministic simulator: FIFO, seeded determinism, observable reordering,
stall and budget detection."""

import hashlib
import threading

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
