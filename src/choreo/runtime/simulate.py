"""Simulated whole-system runs: one endpoint task per census member over the
deterministic in-memory transport, with seeded interleaving."""

from __future__ import annotations

from typing import Any

from ..locations import Census
from ..ops import run_proc
from ..transport import SimNet
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
    blown budget) are recorded in the report, not raised; call
    `report.require_success()` to turn them into exceptions.  With `audit`
    every endpoint also records its value audit and event trail, which
    `check_value_agreement` needs; without it only branches and messages are
    kept.
    """
    proc = run_proc(c, census)
    net = SimNet(census.names, seed=seed, step_budget=step_budget)
    logs = {name: EndpointLog(name) for name in census.names}

    def make_main(name: str):
        return lambda: run_endpoint(
            proc, census, name, net.handle(name), args, seed, inputs, logs[name], audit
        )

    errors = net.run({name: make_main(name) for name in census.names})
    for name, err in errors.items():
        logs[name].error = err
    return RunReport(census.names, logs, net.messages)
