"""Command-line harness: run any example protocol in centralized, simulated,
or real-TCP endpoint mode; compare message counts between variants; drive the
conformance suites.

Output is deterministic for a fixed configuration (including the seed) in
centralized and simulate modes: one `RESULT endpoint json` line per endpoint,
in census order.  Exit status is 0 only if every endpoint produced a result.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

from . import conformance
from .errors import ChoreoError, ConfigError
from .examples import ExampleRun, build_example, example_names
from .protocols.gmw import parse_circuit
from .protocols.kvs import parse_script
from .protocols.lottery import Tamper
from .ops import run_proc
from .runtime import EndpointLog, RunReport, run_centralized, run_simulated
from .runtime.endpoint import run_endpoint
from .runtime.views import view_json
from .transport import TcpTransport


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc


def _parse_inputs(text: str, example: str) -> dict:
    streams: dict[str, list] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep or not name or not value:
            raise ConfigError(f"bad --inputs entry {part!r}, expected name=value")
        if example != "gmw":
            streams.setdefault(name, []).append(int(value))
        elif any(c not in "01" for c in value):
            raise ConfigError(f"gmw inputs are bit strings, got {value!r}")
        else:
            streams.setdefault(name, []).extend(c == "1" for c in value)
    return streams


def _parse_tamper(text: str, example: str) -> Tamper:
    server, sep, which = text.partition(":")
    if not sep or which not in ("draw", "salt"):
        raise ConfigError("--tamper takes SERVER:draw or SERVER:salt")
    return Tamper(server, which)


# The `choreo run` flag of each example option: the parser of its text (given
# the example's name) and its help line.  Which example takes which option is
# stated once, by the builders' keyword parameters in `examples.py`.
EXAMPLE_FLAGS = {
    "script": (lambda text, example: parse_script(_read(text)),
               "request script file for the kvs examples"),
    "circuit": (lambda text, example: parse_circuit(_read(text) if Path(text).exists() else text),
                "circuit file or literal s-expression for gmw"),
    "inputs": (_parse_inputs, "per-location inputs, e.g. p1=10,p2=1"),
    "backups": (lambda text, example: int(text), "backup count for kvs-poly"),
    "servers": (lambda text, example: int(text), "server count for the lottery"),
    "clients": (lambda text, example: int(text), "client count for the lottery"),
    "parties": (lambda text, example: int(text), "party count for gmw"),
    "tamper": (_parse_tamper, "lottery tamper injection, SERVER:draw|salt"),
    "fail_puts": (lambda text, example: [int(p) for p in text.split(",") if p.strip()],
                  "request ordinals whose backup put fails (kvs-error-handling)"),
    "fail_backups": (lambda text, example: [p for p in text.split(",") if p],
                     "backup names that fail puts (kvs-poly)"),
}


def _load_example(ns) -> ExampleRun:
    """Build `ns.example` from exactly the example flags given, each parsed
    from its text and passed on under its own name; the builder rejects a
    flag its example does not take."""
    options = {}
    for option, (parse, _) in EXAMPLE_FLAGS.items():
        text = getattr(ns, option)
        if text is not None:
            try:
                options[option] = parse(text, ns.example)
            except ValueError:
                raise ConfigError(f"bad --{option.replace('_', '-')} value {text!r}") from None
    return build_example(ns.example, **options)


def _load_address_book(path: str, census_names) -> dict[str, str]:
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"address book {path!r} is not JSON: {exc}") from exc
    book = data.get("locations") if isinstance(data, dict) else None
    if not isinstance(book, dict):
        raise ConfigError('address book must look like {"locations": {name: "host:port"}}')
    missing = [n for n in census_names if n not in book]
    if missing:
        raise ConfigError(f"address book is missing locations: {missing}")
    return {str(k): str(v) for k, v in book.items()}


def _write_report(path: str | None, report) -> None:
    if path:
        try:
            Path(path).write_text(report.serialize())
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _cmd_run(ns) -> int:
    if ns.step_budget < 1 or not 0 < ns.recv_timeout <= threading.TIMEOUT_MAX:
        raise ConfigError(f"need --step-budget >= 1 and 0 < --recv-timeout <= {threading.TIMEOUT_MAX:.0f}")
    ex = _load_example(ns)
    if ns.mode == "centralized":
        report = run_centralized(
            ex.choreography, ex.census, ex.args, seed=ns.seed, inputs=ex.inputs
        )
    elif ns.mode == "simulate":
        report = run_simulated(
            ex.choreography, ex.census, ex.args, seed=ns.seed,
            inputs=ex.inputs, step_budget=ns.step_budget,
        )
    else:  # exactly one endpoint per OS process; the report is its fragment
        if not ns.role:
            raise ConfigError("endpoint mode needs --role")
        if not ns.config:
            raise ConfigError("endpoint mode needs --config with the address book")
        if ns.role not in ex.census.names:
            raise ConfigError(f"--role {ns.role!r} is not in census {list(ex.census.names)}")
        book = _load_address_book(ns.config, ex.census.names)
        proc = run_proc(ex.choreography, ex.census)
        transport = TcpTransport(ns.role, book, recv_timeout=ns.recv_timeout)
        log = EndpointLog(ns.role)
        sent = run_endpoint(proc, ex.census, ns.role, transport, ex.args, ns.seed, ex.inputs, log)
        transport.close()
        report = RunReport(ex.census.names, {ns.role: log}, sent)
    _write_report(ns.report, report)
    for log in report.endpoints.values():
        if log.error is not None:
            print(f"ERROR {log.name} {type(log.error).__name__}: {log.error}")
        else:
            print(f"RESULT {log.name} {view_json(log.result)}")
    return 0 if report.ok else 1


def _cmd_count_messages(ns) -> int:
    first, _, second = ns.pair.partition(",")
    if not second:
        raise ConfigError("--pair takes two example names, e.g. kvs-broadcast,kvs-enclave")
    options = {"script": EXAMPLE_FLAGS["script"][0](ns.script, None)} if ns.script else {}
    counts = {}
    for name in (first, second):
        report = conformance.simulate_example(name, ns.seed, **options).require_success()
        counts[name] = len(report.messages)
        print(f"MESSAGES {name} {counts[name]}")
    print(f"DELTA {counts[first] - counts[second]}")
    return 0


def _cmd_conformance(ns) -> int:
    if ns.parties is not None and ns.parties < 1:
        raise ConfigError("--parties must be >= 1")
    parties_counts = (2, 3) if ns.parties is None else (ns.parties,)
    try:
        results = conformance.run_suites(ns.suite, parties_counts)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choreo",
        description="Run choreographic example protocols and their conformance suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one example in one mode")
    run.add_argument("--example", required=True, choices=example_names())
    run.add_argument("--mode", choices=("centralized", "simulate", "endpoint"),
                     default="simulate")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--role", help="this endpoint's location (endpoint mode)")
    run.add_argument("--config", help="address book JSON (endpoint mode)")
    run.add_argument("--step-budget", type=int, default=10_000, dest="step_budget")
    run.add_argument("--report", help="write the run report to this file")
    run.add_argument("--recv-timeout", type=float, default=30.0, dest="recv_timeout")
    for option, (_, line) in EXAMPLE_FLAGS.items():
        run.add_argument("--" + option.replace("_", "-"), help=line)
    run.set_defaults(func=_cmd_run)

    count = sub.add_parser("count-messages", help="compare message counts of two variants")
    count.add_argument("--pair", default="kvs-broadcast,kvs-enclave")
    count.add_argument("--script", help="request script file")
    count.add_argument("--seed", type=int, default=0)
    count.set_defaults(func=_cmd_count_messages)

    conf = sub.add_parser("conformance", help="run the conformance suites")
    conf.add_argument("--suite", action="append",
                      help="suite name (repeatable); default runs all positive suites")
    conf.add_argument("--parties", type=int, help="restrict the gmw suite to one party count")
    conf.set_defaults(func=_cmd_conformance)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ConfigError as exc:
        print(f"CONFIG ERROR: {exc}", file=sys.stderr)
        return 2
    except ChoreoError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
