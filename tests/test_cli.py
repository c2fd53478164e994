"""Command-line harness: determinism, exit discipline, report files, and the
example options it passes on."""

import json
import socket

import pytest

from choreo.cli import main
from choreo.errors import ConfigError
from choreo.examples import build_example, example_names

PUT_GET = "PUT k 5\nGET k\n"


def run_cli(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_run_simulate_deterministic_output(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text(PUT_GET)
    argv = ["run", "--example", "kvs-enclave", "--mode", "simulate",
            "--seed", "7", "--script", str(script)]
    status1, out1, _ = run_cli(argv, capsys)
    status2, out2, _ = run_cli(argv, capsys)
    assert status1 == status2 == 0
    assert out1 == out2
    assert out1.splitlines()[0].startswith("RESULT client ")
    assert '"value":[0,5]' in out1.splitlines()[0]


def test_run_centralized_matches_simulate(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text(PUT_GET)
    base = ["run", "--example", "kvs-enclave", "--seed", "3", "--script", str(script)]
    _, sim_out, _ = run_cli(base + ["--mode", "simulate"], capsys)
    _, cen_out, _ = run_cli(base + ["--mode", "centralized"], capsys)
    assert sim_out == cen_out


def test_gmw_run_matches_oracle(capsys):
    status, out, _ = run_cli(
        ["run", "--example", "gmw", "--mode", "centralized",
         "--circuit", "(xor (and (in p1) (in p2)) (lit 1))",
         "--inputs", "p1=1,p2=0"],
        capsys,
    )
    assert status == 0
    # (1 and 0) xor 1 = true, revealed at every party
    assert out == "RESULT p1 true\nRESULT p2 true\n"


def test_report_file_format(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text(PUT_GET)
    report_path = tmp_path / "report.txt"
    status, _, _ = run_cli(
        ["run", "--example", "kvs-enclave", "--mode", "simulate",
         "--seed", "1", "--script", str(script), "--report", str(report_path)],
        capsys,
    )
    assert status == 0
    lines = report_path.read_text().strip().splitlines()
    assert lines
    kinds = {line.split()[0] for line in lines}
    assert kinds == {"MSG", "BRANCH"}
    msg_fields = [line.split() for line in lines if line.startswith("MSG")]
    assert len(msg_fields) == 7  # put: 4 messages, get: 3
    for _, sender, receiver, nbytes, t in msg_fields:
        int(nbytes), int(t)


def test_count_messages(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text(PUT_GET)
    status, out, _ = run_cli(["count-messages", "--script", str(script)], capsys)
    assert status == 0
    assert out == "MESSAGES kvs-broadcast 9\nMESSAGES kvs-enclave 7\nDELTA 2\n"


def test_protocol_error_exits_nonzero(capsys):
    status, out, _ = run_cli(
        ["run", "--example", "lottery", "--mode", "simulate",
         "--servers", "2", "--clients", "2", "--tamper", "server1:draw"],
        capsys,
    )
    assert status == 1
    assert "CommitmentFailed" in out


def test_config_errors_exit_two(tmp_path, capsys):
    status, _, err = run_cli(
        ["run", "--example", "kvs-poly", "--backups", "-1"], capsys
    )
    assert status == 2 and "CONFIG ERROR" in err

    status, _, err = run_cli(
        ["run", "--example", "kvs-enclave", "--mode", "endpoint", "--role", "client"],
        capsys,
    )
    assert status == 2  # endpoint mode without an address book

    book = tmp_path / "net.json"
    book.write_text(json.dumps({"locations": {"client": "127.0.0.1:1"}}))
    status, _, err = run_cli(
        ["run", "--example", "kvs-enclave", "--mode", "endpoint",
         "--role", "client", "--config", str(book)],
        capsys,
    )
    assert status == 2 and "missing locations" in err


def test_address_book_must_be_an_object(tmp_path, capsys):
    book = tmp_path / "net.json"
    book.write_text("[1, 2]")
    status, _, err = run_cli(
        ["run", "--example", "kvs-enclave", "--mode", "endpoint",
         "--role", "client", "--config", str(book)],
        capsys,
    )
    assert status == 2 and "address book must look like" in err



def test_endpoint_mode_on_a_taken_port_is_an_error_line(tmp_path, capsys):
    holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    holder.bind(("127.0.0.1", 0))
    holder.listen()
    taken = f"127.0.0.1:{holder.getsockname()[1]}"
    names = ("client", "primary", "backup")
    book = tmp_path / "net.json"
    book.write_text(json.dumps({"locations": {n: taken for n in names}}))
    try:
        status, out, err = run_cli(
            ["run", "--example", "kvs-enclave", "--mode", "endpoint",
             "--role", "client", "--config", str(book)],
            capsys,
        )
    finally:
        holder.close()
    assert status == 1 and out == ""
    assert err.startswith("ERROR TransportError: cannot listen as 'client' at " + taken)

@pytest.mark.parametrize("name", example_names())
def test_examples_reject_options_they_do_not_take(name):
    with pytest.raises(ConfigError, match="no_such_option"):
        build_example(name, no_such_option=1)


@pytest.mark.parametrize("argv", [
    ["run", "--example", "kvs-poly", "--fail-puts", "0"],
    ["run", "--example", "gmw", "--backups", "3"],
    ["run", "--example", "kvs-enclave", "--inputs", "client=1"],
    ["run", "--example", "kvs-enclave", "--script", "MISSING"],
    ["count-messages", "--script", "MISSING"],
    ["run", "--example", "lottery", "--servers", "1", "--clients", "1",
     "--inputs", "client9=4242"],
    ["run", "--example", "gmw", "--parties", "2", "--inputs", "p1=1,p2=0,p7=1"],
    ["run", "--example", "kvs-poly", "--backups", "2", "--fail-backups", "backup9"],
    ["run", "--example", "lottery", "--tamper", "server9:draw"],
    ["run", "--example", "gmw", "--parties", "0"],
    ["run", "--example", "gmw", "--parties", "-1"],
    ["conformance", "--suite", "gmw", "--parties", "0"],
    ["conformance", "--suite", "gmw", "--parties", "-1"],
    ["run", "--example", "kvs-enclave", "--report", "MISSING/r.txt"],
    ["run", "--example", "kvs-enclave", "--step-budget", "0"],
    ["run", "--example", "kvs-enclave", "--step-budget", "-3"],
    ["run", "--example", "kvs-enclave", "--recv-timeout", "0"],
    ["run", "--example", "kvs-enclave", "--mode", "endpoint", "--recv-timeout", "-1"],
    ["run", "--example", "kvs-enclave", "--recv-timeout", "inf"],
], ids=["unused-fail-puts", "unused-backups", "unused-inputs",
        "missing-script-run", "missing-script-count", "unknown-lottery-client",
        "unknown-gmw-party", "unknown-kvs-backup", "unknown-tamper-server",
        "gmw-zero-parties", "gmw-negative-parties", "conformance-zero-parties",
        "conformance-negative-parties", "unwritable-report", "zero-step-budget",
        "negative-step-budget", "zero-recv-timeout", "negative-recv-timeout",
        "infinite-recv-timeout"])
def test_unused_flags_and_unreadable_files_are_config_errors(argv, tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    status, out, err = run_cli([a.replace("MISSING", missing) for a in argv], capsys)
    assert status == 2 and "CONFIG ERROR" in err
    assert out == ""  # nothing printed


def test_conformance_single_suite(capsys):
    status, out, _ = run_cli(["conformance", "--suite", "message-economy"], capsys)
    assert status == 0
    assert out.startswith("SUITE message-economy PASS")


def test_conformance_negative_control_fails_by_design(capsys):
    status, out, _ = run_cli(["conformance", "--suite", "negative-control"], capsys)
    assert status == 1
    assert "StepBudgetExceeded" in out
