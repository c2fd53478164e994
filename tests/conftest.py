"""Shared helpers: run a choreography under both interpreters and require
that the simulated run agrees with the oracle."""

from choreo import run_centralized, run_simulated
from choreo.conformance import compare_runs


def run_agreeing(proc, census, args=None, seed=0, inputs=None):
    """Both modes must succeed and the simulated run must agree with the
    oracle by `compare_runs`.  The simulated run records the value audit and
    event trail, which callers may read."""
    central = run_centralized(proc, census, args, seed=seed, inputs=inputs)
    simulated = run_simulated(proc, census, args, seed=seed, inputs=inputs, audit=True)
    central.require_success()
    simulated.require_success()
    assert compare_runs(central, simulated) == []
    return central, simulated


def enclave_intervals(events, sig):
    """Slices of an endpoint's event list between enter/exit of `sig`."""
    intervals = []
    start = None
    for i, event in enumerate(events):
        if event[0] == "enter" and event[1] == sig:
            start = i
        elif event[0] == "exit" and event[1] == sig and start is not None:
            intervals.append(events[start + 1 : i])
            start = None
    return intervals
