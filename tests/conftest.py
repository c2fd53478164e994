"""Shared helpers: run a choreography under both interpreters and require
that the simulated run agrees with the oracle, or require that a run failed
at every endpoint."""

from choreo import run_centralized, run_simulated
from choreo.conformance import compare_runs


def run_agreeing(proc, census, args=None, seed=0, inputs=None):
    """Both modes must succeed and the simulated run must agree with the
    oracle by `compare_runs`, enclave containment included.  The simulated
    run records the value audit, which callers may read."""
    central = run_centralized(proc, census, args, seed=seed, inputs=inputs)
    simulated = run_simulated(proc, census, args, seed=seed, inputs=inputs, audit=True)
    central.require_success()
    simulated.require_success()
    assert compare_runs(central, simulated) == []
    return central, simulated


def fails_everywhere(report, error):
    """Every endpoint of the run ended with an `error`: a run with no error
    at some endpoint fails this, as one with no error at all does."""
    errors = report.errors()
    assert set(errors) == set(report.census_names)
    assert all(isinstance(e, error) for e in errors.values()), errors
