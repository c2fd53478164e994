"""Shared helpers: run a choreography under both interpreters and require
that every cross-mode observable agrees."""

from choreo import (
    check_fifo,
    check_value_agreement,
    run_centralized,
    run_simulated,
)


def run_agreeing(proc, census, args=None, seed=0, inputs=None):
    """Both modes must succeed, agree on every endpoint's result and branch
    log, and satisfy the value-agreement and FIFO invariants.  The simulated
    run records the value audit and event trail, which callers may read."""
    central = run_centralized(proc, census, args, seed=seed, inputs=inputs)
    simulated = run_simulated(proc, census, args, seed=seed, inputs=inputs, audit=True)
    central.require_success()
    simulated.require_success()
    for name in census.names:
        assert central.result_view(name) == simulated.result_view(name), name
        assert central.branch_outcomes(name) == simulated.branch_outcomes(name), name
    assert len(central.messages) == len(simulated.messages)
    assert check_value_agreement(simulated) == []
    assert check_fifo(simulated) == []
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
