"""Whole-system runs in one process, one endpoint task per census member:
over the deterministic in-memory transport with seeded interleaving, or over
loopback TCP.  Each endpoint's error is recorded in the report, not raised."""

from __future__ import annotations

import threading
from typing import Any

from ..errors import TransportError
from ..locations import Census
from ..ops import run_proc
from ..transport import SimNet, TcpTransport, free_port
from .endpoint import run_endpoint
from .report import EndpointLog, RunReport


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

    def make_main(name: str):
        return lambda: run_endpoint(
            proc, census, name, net.handle(name), args, seed, inputs, logs[name], audit
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
        sent[n] = run_endpoint(proc, census, n, t, args, seed, inputs, logs[n], audit)
        t.close()

    threads = [threading.Thread(target=main, args=(t,)) for t in transports]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return RunReport(census.names, logs, [m for name in census.names for m in sent[name]])
