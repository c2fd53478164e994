"""Acceptance criteria.

One test per criterion, each printing a PASS/FAIL line with what it covered
and how long it took (every criterion carries a runtime budget, asserted
here).  All tolerances are exact.  A criterion that `choreo conformance` also
checks is stated once, in its suite in choreo.conformance, and its test runs
that suite.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import enclave_intervals, run_agreeing

import choreo
from choreo import census_of, decode, run_simulated
from choreo.conformance import (
    _equivalence_examples,
    suite_deadlock,
    suite_gmw,
    suite_lottery,
    suite_message_economy,
    suite_oracle_equivalence,
)
from choreo.examples import build_example
from choreo.protocols import gmw as G
from choreo.protocols.kvs import Get, Put, reference_responses
from choreo.runtime import check_value_agreement
from choreo.transport import free_port


def _finish(name: str, budget_s: float, started: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {name}: PASS - {detail} [{elapsed:.2f}s / budget {budget_s:g}s]")
    assert elapsed < budget_s, f"{name} exceeded its runtime budget"


def _accept(name: str, budget_s: float, suite, note: str = "") -> None:
    """Run a conformance suite as the acceptance criterion `name`."""
    started = time.monotonic()
    result = suite()
    assert result.passed, result.detail
    _finish(name, budget_s, started, result.detail + note)


def _client_responses(report):
    return report.result_view("client")["map"][0][1]["value"]


def test_message_economy():
    _accept("message-economy", 1.0, suite_message_economy)


def test_error_path_reuse():
    started = time.monotonic()
    script = [Put("k", 5), Get("k")]
    ex = build_example("kvs-error-handling", script=script, fail_puts=[0])
    _, report = run_agreeing(ex.choreography, ex.census, ex.args, inputs=ex.inputs)
    assert _client_responses(report) == [-1, 0]
    primary_store = report.result_view("primary")["map"][1][1]["map"][1][1]["value"]
    assert primary_store == {"map": []}, "primary store changed on a failed put"

    follow_up_quiet = 0
    for server in ("primary", "backup"):
        intervals = enclave_intervals(report.endpoints[server].events, ("primary", "backup"))
        assert len(intervals) == 2 * len(script)  # two enclaves per request
        for follow_up in intervals[1::2]:
            traffic = [e for e in follow_up if e[0] in ("send", "recv")]
            assert traffic == [], f"{server} communicated inside the follow-up enclave"
            follow_up_quiet += 1
    # both servers took the error branch: their branch logs agree, and the
    # decision they shared carries the nonzero backup status
    assert report.branch_outcomes("primary") == report.branch_outcomes("backup")
    statuses = [
        decoded[1]
        for rec in report.endpoints["primary"].branches
        if isinstance((decoded := decode(rec.outcome)), tuple)
    ]
    assert 1 in statuses, "no server saw the failing status"

    # the failing run costs exactly as much as a healthy one
    healthy = build_example("kvs-error-handling", script=script)
    _, healthy_report = run_agreeing(healthy.choreography, healthy.census, healthy.args,
                                     inputs=healthy.inputs)
    assert _client_responses(healthy_report) == [0, 5]
    assert len(report.messages) == len(healthy_report.messages)
    _finish("error-path-reuse", 1.0, started,
            f"{follow_up_quiet} follow-up enclaves exchanged 0 messages; "
            "error branch taken at both servers")


def test_census_polymorphism():
    started = time.monotonic()
    script = [Put("a", 1), Get("a"), Put("b", 2), Get("b"), Get("zz")]
    for backups in (0, 1, 2, 5, 10):
        ex = build_example("kvs-poly", backups=backups, script=list(script))
        report = run_simulated(ex.choreography, ex.census, ex.args, seed=backups, inputs=ex.inputs)
        report.require_success()
        assert _client_responses(report) == reference_responses(script), backups

    failing = build_example(
        "kvs-poly", backups=3, script=[Put("a", 1)], fail_backups=["backup2"]
    )
    report = run_simulated(failing.choreography, failing.census, failing.args,
                           seed=1, inputs=failing.inputs)
    report.require_success()
    assert _client_responses(report) == [-1]
    primary_store = report.result_view("primary")["map"][1][1]["map"][1][1]["value"]
    assert primary_store == {"map": []}, "primary store changed on a rejected put"
    _finish("census-polymorphism", 5.0, started,
            "backup counts {0,1,2,5,10} match the model; failing backup -> -1, store unchanged")


def test_gmw_against_oracle():
    _accept("gmw-oracle", 300.0, suite_gmw,
            " (exhaustive gate-depth<=2: 2596 circuits for n=2, 6055 for n=3, all input"
            " assignments; seeded depth-3 samples; simulated samples with 5 seeds)")


def test_ot2_truth_table():
    started = time.monotonic()
    census = census_of(["sender", "receiver"])

    def chor(b, args):
        b1, b2, s = args
        pair = b.locally(b.member("sender"), lambda un: (b1, b2))
        select = b.locally(b.member("receiver"), lambda un: s)
        return G.ot2(b, b.member("sender"), b.member("receiver"), pair, select)

    for b1, b2, s in itertools.product((False, True), repeat=3):
        central, simulated = run_agreeing(chor, census, (b1, b2, s))
        expected = b2 if s else b1
        for report in (central, simulated):
            assert report.result_view("receiver") == {
                "located": ["receiver"],
                "value": expected,
            }, (b1, b2, s)
            assert report.result_view("sender")["value"] == "?absent"
            assert len(report.messages) == 2, "exactly two messages per transfer"
    _finish("ot2-truth-table", 1.0, started,
            "all 8 (b1,b2,s) combinations selected correctly, 2 messages each")


def test_lottery():
    _accept("lottery", 30.0, suite_lottery)


def test_deadlock_freedom():
    _accept("deadlock-freedom", 120.0, suite_deadlock)


def test_projection_soundness_completeness():
    _accept("projection-equivalence", 120.0, suite_oracle_equivalence)


def _run_tcp_processes(example: str, extra: list[str], census_names, seed: int):
    book = {name: f"127.0.0.1:{free_port()}" for name in census_names}
    config = json.dumps({"locations": book})
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(config)
        config_path = fh.name
    # the children import the same choreo package as this process
    src = str(Path(choreo.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    procs = {}
    for name in census_names:
        argv = [sys.executable, "-m", "choreo", "run", "--example", example,
                "--mode", "endpoint", "--role", name, "--config", config_path,
                "--seed", str(seed), "--recv-timeout", "20"] + extra
        procs[name] = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        )
    results = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, (name, out, err)
        line = [l for l in out.splitlines() if l.startswith(f"RESULT {name} ")]
        assert len(line) == 1, out
        results[name] = json.loads(line[0].split(" ", 2)[2])
    return results


def test_transport_interchangeability(tmp_path):
    started = time.monotonic()
    script = tmp_path / "script.txt"
    script.write_text("PUT k 5\nGET k\n")

    ex = build_example("kvs-enclave", script=[Put("k", 5), Get("k")])
    simulated = run_simulated(ex.choreography, ex.census, ex.args, seed=7, inputs=ex.inputs)
    simulated.require_success()
    tcp = _run_tcp_processes("kvs-enclave", ["--script", str(script)],
                             ex.census.names, seed=7)
    for name in ex.census.names:
        assert tcp[name] == simulated.result_view(name), name

    lottery = build_example("lottery", servers=1, clients=1,
                            inputs={"client1": [4242]})
    simulated = run_simulated(lottery.choreography, lottery.census, lottery.args,
                              seed=7, inputs=lottery.inputs)
    simulated.require_success()
    tcp = _run_tcp_processes(
        "lottery",
        ["--servers", "1", "--clients", "1", "--inputs", "client1=4242"],
        lottery.census.names, seed=7,
    )
    for name in lottery.census.names:
        assert tcp[name] == simulated.result_view(name), name
    assert tcp["analyst"]["value"] == 4242
    _finish("transport-interchangeability", 30.0, started,
            "3-process TCP runs of kvs-enclave and the lottery match the simulator")


def test_multiply_located_agreement():
    started = time.monotonic()
    checked = 0
    for ex in _equivalence_examples():
        for seed in range(10):
            simulated = run_simulated(
                ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs, audit=True
            )
            simulated.require_success()
            assert check_value_agreement(simulated) == [], (ex.name, seed)
            checked += sum(
                sum(1 for r in log.values if r.kind == "mlv" and len(r.owners) >= 2)
                for log in simulated.endpoints.values()
            )
    _finish("value-agreement", 120.0, started,
            f"{checked} multiply-owned value records byte-compared across owners")
