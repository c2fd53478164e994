"""The benchmark's own tests, at tiny sizes.

Every workload must print every metric named in BENCHMARK.json, a wrong
reference must surface as failed ops, and a traced run must produce the same
report digest as an untraced one.
"""

import json
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def keep_choreo_modules():
    """The benchmark re-imports `choreo` to time set-up; put back the modules
    the rest of the session imported."""
    saved = {k: v for k, v in sys.modules.items() if k == "choreo" or k.startswith("choreo.")}
    yield
    for k in [k for k in sys.modules if k == "choreo" or k.startswith("choreo.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_runs_give_every_metric_and_one_digest(name):
    plain, plain_record = run.run(name, seed=3, seconds=0.2, trace=False, size="tiny")
    traced, traced_record = run.run(name, seed=3, seconds=0.4, trace=True, size="tiny")
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for result, record in ((plain, plain_record), (traced, traced_record)):
        assert result["correct"] and result["failed"] == 0, record["problems"]
        assert result["attempted"] >= 1
        assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())
    assert traced_record["digests_agree"]
    assert plain_record["report_digest"] == traced_record["report_digest"]


def _wrong_gmw(reference):
    return lambda circuit, streams: not reference(circuit, streams)


def _wrong_kvs(reference):
    return lambda script: [r + 1 for r in reference(script)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_reference_counts_as_failed_ops(name):
    workload = run.load_workload(name, seed=4, size="tiny")[0]
    wrong = _wrong_kvs if name == "kvs-tcp" else _wrong_gmw
    workload.reference = wrong(workload.reference)
    phase = workload.measure(0.1)
    assert phase.attempted >= 1
    assert phase.failed == phase.attempted
    assert phase.problems
