"""Commitment lottery: field arithmetic, the commitment scheme, winner
selection, opening order, and tamper detection."""

import hashlib
import random

import pytest
from conftest import run_agreeing

from choreo import run_centralized, run_simulated
from choreo.conformance import (
    expected_lottery_winner,
    lottery_commit_ordering_problems,
)
from choreo.errors import CommitmentFailed, StepBudgetExceeded
from choreo.examples import build_example
from choreo.protocols.lottery import (
    FIELD_MODULUS,
    Tamper,
    commit,
    field_rand,
    field_sub,
    verify,
    winning_index,
)


def test_field_arithmetic():
    assert field_sub(5, 5) == 0
    assert field_sub(0, 1) == FIELD_MODULUS - 1
    rng = random.Random(3)
    for _ in range(200):
        x, f = field_rand(rng), field_rand(rng)
        assert (field_sub(x, f) + f) % FIELD_MODULUS == x
        assert 0 <= field_rand(rng) < FIELD_MODULUS


def test_commitment_scheme():
    assert commit(4, 9) == commit(4, 9)
    assert commit(4, 9) != commit(4, 10)
    assert commit(4, 9) != commit(5, 9)
    assert len(commit(123456, 654321)) == 32
    assert verify(commit(7, 8), 7, 8)
    assert not verify(commit(7, 8), 7, 9)


def test_winning_index():
    assert winning_index([0, 0, 0], 4) == 0
    assert winning_index([1, 2, 3], 4) == 2
    assert winning_index([FIELD_MODULUS - 1, 1], 5) == 0  # field wraparound
    for n in (1, 2, 7):
        assert 0 <= winning_index([13, 17, 19], n) < n


def _run(seed, *, servers=3, clients=4, tamper=None, draw_range=None, inputs=None):
    options = {"servers": servers, "clients": clients}
    if tamper:
        options["tamper"] = tamper
    if draw_range:
        options["draw_range"] = draw_range
    if inputs:
        options["inputs"] = inputs
    ex = build_example("lottery", **options)
    report = run_simulated(ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs)
    return ex, report


def test_analyst_learns_the_predicted_secret():
    for seed in range(10):
        ex, report = _run(seed)
        report.require_success()
        winner = expected_lottery_winner(seed, ("server1", "server2", "server3"), 4)
        expected = ex.inputs[f"client{winner + 1}"][0] % FIELD_MODULUS
        assert report.result_view("analyst") == {"located": ["analyst"], "value": expected}
        # only the analyst holds the output
        for name in ex.census.names:
            if name != "analyst":
                assert report.result_view(name)["value"] == "?absent"


def test_zero_draws_select_the_first_client():
    # draw_range=1 forces every server's index contribution to zero
    ex, report = _run(0, draw_range=1, inputs={"client1": [321]})
    report.require_success()
    assert report.result_view("analyst")["value"] == 321


def test_modes_agree():
    ex = build_example("lottery", servers=2, clients=3)
    run_agreeing(ex.choreography, ex.census, ex.args, seed=5, inputs=ex.inputs)


def test_single_server_single_client():
    ex, report = _run(1, servers=1, clients=1, inputs={"client1": [77]})
    report.require_success()
    assert report.result_view("analyst")["value"] == 77


def test_openings_wait_for_all_commitments():
    for seed in range(25):
        ex, report = _run(seed)
        report.require_success()
        assert lottery_commit_ordering_problems(
            report, ("server1", "server2", "server3")
        ) == []


@pytest.mark.parametrize("which", ["draw", "salt"])
def test_tamper_fails_every_honest_server(which):
    ex, report = _run(3, tamper=Tamper("server2", which))
    errors = report.errors()
    for name in ("server1", "server2", "server3"):
        assert isinstance(errors[name], CommitmentFailed), name
    # the analyst never hears back and is flagged as stalled
    assert isinstance(errors["analyst"], StepBudgetExceeded)


def test_default_and_tampered_runs_are_pinned():
    # One digest over the default 3-server, 4-client lottery at seeds 0-2,
    # centralized and audited-simulated, and over salt and draw tampering at
    # the first and the last server under both interpreters without the audit:
    # every message with its three time stamps, the serialized report, and per
    # endpoint its result view, error type, error text and value records.
    runs = [(None, False)] + [
        (Tamper(server, which), True)
        for server in ("server1", "server3")
        for which in ("salt", "draw")
    ]
    h = hashlib.sha256()
    for tamper, plain in runs:
        ex = build_example("lottery", tamper=tamper)
        for seed in range(3):
            for report in (
                run_centralized(ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs),
                run_simulated(ex.choreography, ex.census, ex.args, seed=seed,
                              inputs=ex.inputs, audit=not plain),
            ):
                for m in report.messages:
                    h.update(repr((m.sender, m.receiver, m.nbytes, m.seq,
                                   m.t_send, m.t_deliver, m.t_recv)).encode())
                h.update(report.serialize().encode())
                for name in ex.census.names:
                    log = report.endpoints[name]
                    h.update(repr((name, report.result_view(name), type(log.error).__name__,
                                   str(log.error))).encode())
                    for r in log.values:
                        h.update(repr((r.sig, r.seq, r.kind, r.owners, r.state, r.payload)).encode())
    assert h.hexdigest() == (
        "c059b74392dde2ee365123cba17681827945026e407645f1d384f4ee5e114e52"
    )
