"""GMW building blocks and the whole protocol against the plain oracle."""

import itertools
import random
from collections import deque

import pytest
from conftest import fails_everywhere, run_agreeing

from choreo import Choreography, census_of, run_centralized, run_simulated
from choreo.errors import (
    ContractError,
    EmptyFoldError,
    InputExhaustedError,
    NotAMemberError,
)
from choreo.examples import build_example
from choreo.portable import encode
from choreo.protocols import gmw as G
from choreo.seeding import location_rng


def test_xor_fold():
    assert G.xor_fold([True]) is True
    assert G.xor_fold([True, False, True]) is False
    assert G.xor_fold([False, False]) is False
    with pytest.raises(EmptyFoldError):
        G.xor_fold([])
    # truthy entries count as true, and the result is a bool
    assert G.xor_fold([2, 1]) is False
    assert G.xor_fold([2, 0, "x"]) is False
    assert G.xor_fold(iter([7])) is True
    assert G.xor_fold([0, None, ""]) is False
    with pytest.raises(EmptyFoldError):
        G.xor_fold(iter([]))


def test_gen_shares_structure_and_reconstruction():
    rng = random.Random(1)
    assert G.gen_shares(1, True, rng) == [True]
    # free shares are taken verbatim; the first share completes the fold
    rng = random.Random(2)
    shares = G.gen_shares(3, True, rng)
    f1, f2 = shares[1], shares[2]
    assert shares[0] == G.xor_fold([True, f1, f2])
    for n in range(1, 9):
        for secret in (False, True):
            assert G.xor_fold(G.gen_shares(n, secret, random.Random(n))) == secret


def test_parse_and_print_circuits():
    text = "(xor (and (in p1) (lit 1)) (in p2))"
    circuit = G.parse_circuit(text)
    assert circuit == G.XorGate(
        G.AndGate(G.InputWire("p1"), G.LitWire(True)), G.InputWire("p2")
    )
    assert G.circuit_to_text(circuit) == text
    for bad in ("", "(nand (in a) (in b))", "(lit 2)", "(in a) extra", "(and (in a))"):
        with pytest.raises(Exception):
            G.parse_circuit(bad)


def test_eval_circuit_oracle():
    assert G.eval_circuit(G.LitWire(True), {}) is True
    assert G.eval_circuit(G.AndGate(G.LitWire(True), G.LitWire(False)), {}) is False
    c = G.parse_circuit("(xor (in a) (in a))")
    assert G.eval_circuit(c, {"a": deque([True, False])}) is True
    with pytest.raises(InputExhaustedError):
        G.eval_circuit(G.InputWire("a"), {"a": deque()})
    # brute-force truth table for a two-input circuit
    c = G.parse_circuit("(and (in a) (xor (in b) (lit 1)))")
    for x, y in itertools.product((False, True), repeat=2):
        got = G.eval_circuit(c, {"a": deque([x]), "b": deque([y])})
        assert got == (x and (y != True))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_secret_share_reconstructs(n):
    census = census_of([f"p{i}" for i in range(1, n + 1)])

    def chor(b, args):
        owner = b.member("p1")
        v = b.locally(owner, lambda un: args)
        shares = G.secret_share(b, owner, v)
        return G.reveal(b, shares)

    for secret in (False, True):
        central, simulated = run_agreeing(chor, census, args=secret, seed=n)
        assert all(central.result_view(p) == secret for p in census.names)
        # scatter costs n-1 messages, reveal costs n(n-1)
        assert len(simulated.messages) == (n - 1) + n * (n - 1)


def _ot_census():
    return census_of(["sender", "receiver"])


def _ot_chor(b, args):
    b1, b2, s = args
    pair = b.locally(b.member("sender"), lambda un: (b1, b2))
    select = b.locally(b.member("receiver"), lambda un: s)
    result = G.ot2(b, b.member("sender"), b.member("receiver"), pair, select)
    opened = b.multicast(b.member("receiver"), b.everyone(), result)
    return b.naked(opened)


def test_ot2_truth_table_and_message_pattern():
    for b1, b2, s in itertools.product((False, True), repeat=3):
        central, simulated = run_agreeing(
            _ot_chor, _ot_census(), args=(b1, b2, s), seed=5
        )
        expected = b2 if s else b1
        assert central.result_view("sender") == expected
        # keys to the sender, ciphertexts to the receiver, then the test's
        # own opening message
        ot_messages = [m for m in simulated.messages][:2]
        assert [(m.sender, m.receiver) for m in ot_messages] == [
            ("receiver", "sender"),
            ("sender", "receiver"),
        ]
        assert len(simulated.messages) == 3


def test_ot2_requires_two_party_census():
    three = census_of(["sender", "receiver", "observer"])

    def chor(b, args):
        pair = b.locally(b.member("sender"), lambda un: (True, False))
        select = b.locally(b.member("receiver"), lambda un: False)
        return G.ot2(b, b.member("sender"), b.member("receiver"), pair, select)

    fails_everywhere(run_centralized(chor, three), ContractError)


def test_ot2_sender_view_independent_of_selection():
    # with a fixed receiver key stream, the published keys are byte-identical
    # whichever slot is selected
    for seed in range(5):
        keys_false = G._gen_keys(False, random.Random(seed))
        keys_true = G._gen_keys(True, random.Random(seed))
        assert encode((keys_false[0], keys_false[1])) == encode((keys_true[0], keys_true[1]))
        assert keys_false[2] != keys_true[2]  # but the retained pad differs

    # and over a whole run, the bytes the sender receives are identical
    sizes = {}
    for s in (False, True):
        report = run_simulated(_ot_chor, _ot_census(), args=(True, False, s), seed=9)
        report.require_success()
        keys_msg = report.messages[0]
        sizes[s] = (keys_msg.sender, keys_msg.nbytes)
    assert sizes[False] == sizes[True]


def _shares_chor(n):
    census = census_of([f"p{i}" for i in range(1, n + 1)])

    def chor(b, args):
        u = b.parallel(b.everyone(), lambda loc, un: bool(un.next_input()))
        v = b.parallel(b.everyone(), lambda loc, un: bool(un.next_input()))
        out = G.f_and(b, u, v)
        return G.reveal(b, out)

    return census, chor


@pytest.mark.parametrize("n", [1, 2, 3])
def test_f_and_exhaustive_over_share_assignments(n):
    census, chor = _shares_chor(n)
    names = census.names
    for bits in itertools.product((False, True), repeat=2 * n):
        u_bits, v_bits = bits[:n], bits[n:]
        inputs = {names[i]: [u_bits[i], v_bits[i]] for i in range(n)}
        expected = G.xor_fold(u_bits) and G.xor_fold(v_bits)
        central, simulated = run_agreeing(chor, census, seed=3, inputs=inputs)
        assert all(central.result_view(p) == expected for p in names), (bits, n)


def test_f_and_message_count():
    n = 3
    census, chor = _shares_chor(n)
    inputs = {p: [True, True] for p in census.names}
    _, simulated = run_agreeing(chor, census, seed=1, inputs=inputs)
    # one transfer (2 messages) per ordered pair, plus the reveal gather
    assert len(simulated.messages) == 2 * n * (n - 1) + n * (n - 1)


def test_gmw_literal_and_xor():
    chor = Choreography(lambda b, circ: G.mpc(b, circ))
    census = census_of(["p1", "p2", "p3"])
    for bit in (False, True):
        central, _ = run_agreeing(chor, census, args=G.LitWire(bit), seed=2)
        assert all(central.result_view(p) == bit for p in census.names)
    for a, b_ in itertools.product((False, True), repeat=2):
        circuit = G.XorGate(G.LitWire(a), G.LitWire(b_))
        central, _ = run_agreeing(chor, census, args=circuit, seed=2)
        assert all(central.result_view(p) == (a != b_) for p in census.names)


def test_gmw_rejects_unknown_input_owner():
    chor = Choreography(lambda b, circ: G.mpc(b, circ))
    fails_everywhere(run_centralized(chor, census_of(["p1"]), args=G.InputWire("p9")),
                     NotAMemberError)


def test_gmw_share_locality():
    # no endpoint's readable values ever include another endpoint's facet
    ex = build_example(
        "gmw",
        parties=3,
        circuit=G.parse_circuit("(and (in p1) (and (in p2) (in p3)))"),
        inputs={"p1": [True], "p2": [True], "p3": [True]},
    )
    report = run_simulated(
        ex.choreography, ex.census, ex.args, seed=4, inputs=ex.inputs, audit=True
    )
    report.require_success()
    faceted = [(name, record) for name in ex.census.names
               for record in report.endpoints[name].values if record.kind == "faceted"]
    assert faceted
    for name, record in faceted:
        assert record.state == ("present" if name in record.owners else "absent")


def test_gmw_matches_oracle_on_sampled_depth3_circuits():
    rng = random.Random(99)
    chor = Choreography(lambda b, circ: G.mpc(b, circ))
    for n in (2, 3):
        parties = tuple(f"p{i}" for i in range(1, n + 1))
        census = census_of(parties)
        for _ in range(5):
            circuit = G.sample_circuit(3, parties, rng)
            for streams in itertools.islice(G.input_assignments(circuit, parties), 4):
                expected = G.eval_circuit(
                    circuit, {p: deque(v) for p, v in streams.items()}
                )
                central, simulated = run_agreeing(
                    chor, census, args=circuit, seed=6, inputs=streams
                )
                assert all(central.result_view(p) == expected for p in parties)


def test_an_oracle_gmw_run_decodes_no_payload(monkeypatch):
    # Every GMW payload is plain (a bool, a str, or a pair of them), so the
    # oracle hands each recipient the sender's value and never decodes.
    import choreo.runtime.central as central

    decoded = []
    monkeypatch.setattr(central, "decode", lambda data: decoded.append(data))
    ex = build_example(
        "gmw",
        parties=3,
        circuit=G.parse_circuit("(and (in p1) (and (in p2) (in p3)))"),
        inputs={"p1": [True], "p2": [True], "p3": [False]},
    )
    report = run_centralized(ex.choreography, ex.census, ex.args, seed=4, inputs=ex.inputs)
    report.require_success()
    assert report.messages and decoded == []
    assert all(report.result_view(p) is False for p in ex.census.names)
