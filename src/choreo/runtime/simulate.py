"""Whole-system runs in one process, one endpoint task per census member:
over the deterministic in-memory transport with seeded interleaving, or over
loopback TCP.  Each endpoint's error is recorded in the report, not raised,
and each endpoint runs on its own copy of the run's `args`."""

from __future__ import annotations

import copy
import dataclasses
import threading
from typing import Any

from ..errors import TransportError
from ..locations import Census
from ..ops import run_proc
from ..transport import SimNet, TcpTransport, free_port
from .endpoint import run_endpoint
from .report import EndpointLog, RunReport


def _immutable(value: Any) -> bool:
    """Built only from None, bool, int, str, tuples, frozensets and frozen
    dataclasses, so no body can change it."""
    if type(value) in (tuple, frozenset):
        return all(map(_immutable, value))
    if getattr(getattr(type(value), "__dataclass_params__", None), "frozen", False):
        return all(_immutable(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value is None or type(value) in (bool, int, str)


def _own_args(args: Any, names: tuple[str, ...]) -> dict[str, Any]:
    """Each endpoint's own `args`, as separate processes would have: a deep
    copy per endpoint, or the one `args` when nothing in it can change."""
    if _immutable(args):
        return dict.fromkeys(names, args)
    return {name: copy.deepcopy(args) for name in names}


def run_simulated(
    c,
    census: Census,
    args: Any = None,
    seed: int = 0,
    inputs: dict | None = None,
    step_budget: int = 10_000,
    audit: bool = False,
) -> RunReport:
    """Run all endpoints in-process over the seeded simulator.

    Per-endpoint failures (protocol errors, StepBudgetExceeded on stall or
    blown budget) are recorded in the report.  With `audit` every endpoint
    also records its value audit, which `check_value_agreement` needs;
    without it only branches and messages are kept.
    """
    proc = run_proc(c, census)
    net = SimNet(census.names, seed=seed, step_budget=step_budget)
    logs = {name: EndpointLog(name) for name in census.names}
    own = _own_args(args, census.names)

    def make_main(name: str):
        return lambda: run_endpoint(
            proc, census, name, net.handle(name), own[name], seed, inputs, logs[name], audit
        )

    for name, err in net.run({name: make_main(name) for name in census.names}).items():
        if err is not None:  # the task was aborted before it ran
            logs[name].error = err
    return RunReport(census.names, logs, net.messages)


def run_over_tcp(
    c, census: Census, args: Any = None, seed: int = 0, inputs: dict | None = None,
    audit: bool = False,
) -> RunReport:
    """Run all endpoints in threads of this process, each over its own
    `TcpTransport` on a free loopback port.  All are bound before any starts
    (a failed bind raises TransportError); each closes its transport as soon
    as it ends, so a receive from it fails at once; all have ended on return."""
    proc = run_proc(c, census)
    own = _own_args(args, census.names)
    book = {name: f"127.0.0.1:{free_port()}" for name in census.names}
    transports = []
    try:
        for name in census.names:
            transports.append(TcpTransport(name, book))
    except TransportError:
        for transport in transports:
            transport.close()
        raise
    logs = {name: EndpointLog(name) for name in census.names}
    sent = {}

    def main(t: TcpTransport) -> None:
        n = t.self_name
        sent[n] = run_endpoint(proc, census, n, t, own[n], seed, inputs, logs[n], audit)
        t.close()

    threads = [threading.Thread(target=main, args=(t,)) for t in transports]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return RunReport(census.names, logs, [m for name in census.names for m in sent[name]])
