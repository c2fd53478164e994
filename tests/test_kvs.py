"""Key-value store variants against the single-map reference model, message
accounting, error-path reuse, and census polymorphism."""

import random

import pytest
from conftest import run_agreeing

from choreo import run_simulated
from choreo.errors import ConfigError
from choreo.examples import build_example
from choreo.protocols.kvs import (
    Get,
    Put,
    from_wire,
    parse_script,
    reference_responses,
    to_wire,
)

VARIANTS = ("kvs-broadcast", "kvs-enclave", "kvs-error-handling", "kvs-poly")


def client_responses(report):
    return report.result_view("client")["map"][0][1]["value"]


def run_variant(name, script, seed=0, **options):
    ex = build_example(name, script=list(script), **options)
    central, simulated = run_agreeing(
        ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs
    )
    return ex, simulated


def test_wire_roundtrip():
    for req in (Get("k"), Put("k", -3)):
        assert from_wire(to_wire(req)) == req


def test_parse_script():
    assert parse_script("PUT k 5\n\n# comment\nGET k\n") == [Put("k", 5), Get("k")]
    with pytest.raises(ConfigError):
        parse_script("DELETE k")
    with pytest.raises(ConfigError):
        parse_script("PUT k five")


def test_reference_model():
    script = [Put("a", 1), Get("a"), Get("b"), Put("a", 2), Get("a")]
    assert reference_responses(script) == [0, 1, 0, 0, 2]


def random_scripts(count=6, length=8, seed=424):
    rng = random.Random(seed)
    for _ in range(count):
        script = []
        for _ in range(length):
            key = rng.choice("abc")
            if rng.random() < 0.5:
                script.append(Put(key, rng.randrange(100)))
            else:
                script.append(Get(key))
        yield script


@pytest.mark.parametrize("variant", VARIANTS)
def test_variants_match_reference_model(variant):
    for i, script in enumerate(random_scripts()):
        _, report = run_variant(variant, script, seed=i)
        assert client_responses(report) == reference_responses(script)


def test_replicas_consistent_after_puts():
    script = [Put("a", 1), Put("b", 2), Get("a"), Put("a", 3)]
    for variant in ("kvs-broadcast", "kvs-enclave", "kvs-error-handling"):
        _, report = run_variant(variant, script)
        primary = report.result_view("primary")["map"][1][1]["map"][1][1]["value"]
        backup = report.result_view("backup")["map"][1][1]["map"][0][1]["value"]
        assert primary == backup == {"map": [["a", 3], ["b", 2]]}


def test_message_counts_per_request():
    per_request = {
        "kvs-broadcast": {"get": 4, "put": 5},
        "kvs-enclave": {"get": 3, "put": 4},
        "kvs-error-handling": {"get": 3, "put": 4},
    }
    for variant, expect in per_request.items():
        _, report = run_variant(variant, [Get("k")])
        assert len(report.messages) == expect["get"], variant
        _, report = run_variant(variant, [Put("k", 1)])
        assert len(report.messages) == expect["put"], variant


def test_enclave_saves_one_message_per_request():
    for script in random_scripts(count=3):
        _, broadcast = run_variant("kvs-broadcast", script)
        _, enclave = run_variant("kvs-enclave", script)
        assert len(broadcast.messages) - len(enclave.messages) == len(script)
        assert client_responses(broadcast) == client_responses(enclave)


def test_error_path_client_stays_out_of_enclaves():
    script = [Put("k", 5)]
    # run_variant's oracle comparison fails on any record the client makes
    # under the servers' census; on the wire it sends one request and gets
    # one response
    _, report = run_variant("kvs-error-handling", script, fail_puts=[0])
    client_pairs = [(m.sender, m.receiver) for m in report.messages
                    if "client" in (m.sender, m.receiver)]
    assert client_pairs == [("client", "primary"), ("primary", "client")]


@pytest.mark.parametrize("backups", [0, 1, 2, 5, 10])
def test_poly_any_backup_count(backups):
    script = [Put("a", 1), Get("a"), Put("b", 2), Get("b"), Get("zz")]
    ex, report = run_variant("kvs-poly", script, backups=backups)
    assert client_responses(report) == reference_responses(script)
    # every replica ends with the same store
    primary_store = report.result_view("primary")["map"][1][1]["map"][1][1]["value"]
    assert primary_store == {"map": [["a", 1], ["b", 2]]}
    for i in range(1, backups + 1):
        view = report.result_view(f"backup{i}")["map"][1][1]["map"][0][1]["facet"]
        assert view == primary_store


def test_poly_failing_backup_rejects_put():
    script = [Put("a", 1), Put("b", 2), Get("a")]
    ex, report = run_variant(
        "kvs-poly", script, backups=3, fail_backups=["backup2"]
    )
    # puts are rejected, the primary store stays unchanged, gets still work
    assert client_responses(report) == [-1, -1, 0]
    primary_store = report.result_view("primary")["map"][1][1]["map"][1][1]["value"]
    assert primary_store == {"map": []}


def test_poly_zero_backups_applies_unconditionally():
    script = [Put("a", 9), Get("a")]
    ex, report = run_variant("kvs-poly", script, backups=0)
    assert client_responses(report) == [0, 9]
    assert len(report.messages) == 2 + 2  # put: request+response, get: same
