"""Interpreter-level properties: oracle equivalence, projection erasure,
per-endpoint randomness, report serialization, and the invariant checks
catching real divergence."""

from functools import partial

import pytest
from conftest import run_agreeing

from choreo import census_of, project_and_run, run_centralized, run_simulated
from choreo.errors import CommitmentFailed, StepBudgetExceeded, WitnessMismatchError
from choreo.conformance import compare_runs
from choreo.examples import build_example, example_names
from choreo.runtime import (
    BranchRecord,
    EndpointLog,
    RunReport,
    ValueRecord,
    check_branch_agreement,
    check_fifo,
    check_value_agreement,
)
from choreo.seeding import location_rng
from choreo.transport import MessageRecord

THREE = census_of(["a", "b", "c"])


def _relay(b, args):
    v = b.locally(b.member("a"), lambda un: args)
    at_b = b.multicast(b.member("a"), b.subset(["b"]), v)
    return b.locally(b.member("b"), lambda un: un(at_b) + 1)


def test_singleton_pure_choreography_is_plain_evaluation():
    solo = census_of(["only"])

    def chor(b, args):
        return b.locally(b.member("only"), lambda un: args * 2)

    central, simulated = run_agreeing(chor, solo, args=21)
    assert len(simulated.messages) == 0
    assert central.result_view("only") == {"located": ["only"], "value": 42}


class _Silent:
    """A transport for an endpoint that takes part in no communication."""

    def send(self, to, body):
        raise AssertionError("unused")

    def recv(self, frm):
        raise AssertionError("unused")


def test_run_at_location_outside_census_rejected():
    with pytest.raises(WitnessMismatchError):
        project_and_run(_relay, THREE, "zebra", _Silent(), args=1)


def test_require_success_walks_the_endpoints_a_fragment_holds():
    _, fragment = project_and_run(_relay, THREE, "c", _Silent(), args=1)
    assert fragment.require_success() is fragment
    fragment.endpoints["c"].error = CommitmentFailed("c failed")
    with pytest.raises(CommitmentFailed, match="c failed"):
        fragment.require_success()


def test_projection_erasure_for_uninvolved_endpoint():
    # c takes part in no communication and no local computation: projecting
    # to c must touch the network zero times and yield absent-shaped results.
    class ExplodingTransport:
        def send(self, to, body):
            raise AssertionError("uninvolved endpoint tried to send")

        def recv(self, frm):
            raise AssertionError("uninvolved endpoint tried to receive")

    result, fragment = project_and_run(
        _relay, THREE, "c", ExplodingTransport(), args=1, audit=True
    )
    assert result == {"located": ["b"], "value": "?absent"}
    assert [r.state for r in fragment.endpoints["c"].values] == ["absent"] * 3
    assert check_value_agreement(fragment) == []
    assert fragment.messages == []


def test_per_endpoint_randomness_matches_across_modes():
    def chor(b, args):
        return b.parallel(b.everyone(), lambda loc, un: un.rng.randrange(1000))

    central, simulated = run_agreeing(chor, THREE, seed=123)
    expected = {n: location_rng(123, n).randrange(1000) for n in THREE.names}
    for name in THREE.names:
        assert central.result_view(name)["facet"] == expected[name]


def test_input_streams_shared_across_modes():
    def chor(b, args):
        first = b.locally(b.member("a"), lambda un: un.next_input())
        second = b.locally(b.member("a"), lambda un: un.next_input())
        shared = b.multicast(b.member("a"), b.everyone(), first)
        return b.naked(shared)

    inputs = {"a": [5, 6]}
    central, simulated = run_agreeing(chor, THREE, inputs=inputs)
    assert central.result_view("b") == 5


def test_report_serialization_format():
    central, simulated = run_agreeing(_relay, THREE, args=1)
    text = simulated.serialize()
    lines = text.strip().splitlines()
    assert lines and all(l.split()[0] in ("MSG", "BRANCH") for l in lines)
    msg = [l for l in lines if l.startswith("MSG")]
    assert len(msg) == 1
    sender, receiver, nbytes, t = msg[0].split()[1:]
    assert (sender, receiver) == ("a", "b")
    assert int(nbytes) > 0 and int(t) >= 0
    # message records are slotted: no per-record __dict__
    assert not hasattr(simulated.messages[0], "__dict__")


def test_centralized_same_seed_identical_reports():
    ex = build_example("lottery", servers=2, clients=2)
    reports = [
        run_centralized(ex.choreography, ex.census, ex.args, seed=8, inputs=ex.inputs)
        for _ in range(2)
    ]
    assert reports[0].serialize() == reports[1].serialize()
    for name in ex.census.names:
        assert reports[0].result_view(name) == reports[1].result_view(name)


def test_report_golden_file():
    # freezes the serialized report for one seeded single-Get run: message
    # sizes, logical timestamps, branch site naming, and outcome encoding
    from choreo.protocols.kvs import Get

    ex = build_example("kvs-enclave", script=[Get("k")])
    report = run_simulated(ex.choreography, ex.census, ex.args, seed=4, inputs=ex.inputs)
    report.require_success()
    assert report.serialize() == (
        "MSG client primary 8 0\n"
        "MSG primary backup 8 3\n"
        "MSG primary client 9 4\n"
        "BRANCH primary primary+backup#0 050003000000016b\n"
        "BRANCH backup primary+backup#0 050003000000016b\n"
    )


def test_value_agreement_catches_divergence():
    # A "replicated" body that sneaks in endpoint identity (here: the bundle
    # object's id, which differs per endpoint task) breaks the agreement
    # contract; the run bookkeeping must catch it after the fact.
    def diverging(b, args):
        return b.replicated(lambda un: id(b) % (1 << 31))

    report = run_simulated(diverging, THREE, audit=True)
    report.require_success()
    assert check_value_agreement(report) != []


@pytest.mark.parametrize("run", [
    pytest.param(lambda: run_simulated(_relay, THREE, args=1), id="simulated"),
    pytest.param(lambda: project_and_run(_relay, THREE, "c", _Silent(), args=1)[1],
                 id="projected"),
    pytest.param(lambda: run_centralized(_relay, THREE, args=1), id="centralized"),
])
def test_value_agreement_refuses_an_unaudited_report(run):
    # without the audit there is nothing to compare: the check must say so
    # rather than report no problems
    report = run()
    assert report.ok
    assert not any(log.audited for log in report.endpoints.values())
    with pytest.raises(ValueError, match="audit=True"):
        check_value_agreement(report)


@pytest.mark.parametrize("name", example_names())
def test_audit_only_observes(name):
    # recording the audit changes no result, branch log, message or schedule
    ex = build_example(name)
    for seed in (0, 1, 2):
        plain, audited = (
            run_simulated(ex.choreography, ex.census, ex.args, seed=seed,
                          inputs=ex.inputs, audit=audit)
            for audit in (False, True)
        )
        assert plain.serialize() == audited.serialize()
        assert plain.messages == audited.messages
        for n in ex.census.names:
            assert plain.result_view(n) == audited.result_view(n)
            assert repr(plain.endpoints[n].error) == repr(audited.endpoints[n].error)
            assert plain.endpoints[n].values == []
        if audited.ok:
            assert check_value_agreement(audited) == []
            assert any(log.values for log in audited.endpoints.values())


AB = ("a", "b")


def _report(messages=(), branches=None, values=None, results=None):
    """A report over census (a, b) from hand-built records, marked audited."""
    logs = {
        n: EndpointLog(n, audited=True, branches=(branches or {}).get(n, []),
                       values=(values or {}).get(n, []), result=(results or {}).get(n))
        for n in AB
    }
    return RunReport(AB, logs, list(messages))


def _mlv(owners, state, payload):
    return ValueRecord(AB, 0, "mlv", owners, state, payload)


@pytest.mark.parametrize("check, report, problem", [
    pytest.param(
        check_fifo,
        _report(messages=[MessageRecord("a", "b", 1, 0, t_send=0, t_recv=2),
                          MessageRecord("a", "b", 1, 2, t_send=1, t_recv=3)]),
        "('a', 'b'): send #1 has seq 2",
        id="fifo-seq-gap"),
    pytest.param(
        check_fifo,
        _report(messages=[MessageRecord("a", "b", 1, 0, t_send=0, t_recv=5),
                          MessageRecord("a", "b", 1, 1, t_send=1, t_recv=3)]),
        "('a', 'b'): consumption order violates FIFO",
        id="fifo-consumed-out-of-order"),
    pytest.param(
        check_branch_agreement,
        _report(branches={"a": [BranchRecord(AB, 0, b"\x01")],
                          "b": [BranchRecord(AB, 0, b"\x02")]}),
        "branch outcomes disagree within census ('a', 'b')",
        id="branch-outcomes-disagree"),
    pytest.param(
        check_branch_agreement,
        _report(branches={"a": [BranchRecord(AB, 0, b"\x01")]}),
        "b logged no branch outcomes for census ('a', 'b')",
        id="branch-member-logged-none"),
    pytest.param(
        check_branch_agreement,
        _report(branches={n: [BranchRecord(("a",), 0, b"\x01")] for n in AB}),
        "b logged branch outcomes for census ('a',) it is not in",
        id="branch-record-outside-its-census"),
    pytest.param(
        check_value_agreement,
        _report(values={"a": [_mlv(("a",), "present", b"x")],
                        "b": [_mlv(AB, "present", b"x")]}),
        "mlv #0 under ('a', 'b'): endpoints disagree on the owner set",
        id="value-owner-sets-differ"),
    pytest.param(
        check_value_agreement,
        _report(values={"a": [_mlv(("a",), "present", b"x")],
                        "b": [_mlv(("a",), "present", b"x")]}),
        "mlv #0 under ('a', 'b'): present at b, expected absent",
        id="value-present-at-non-owner"),
    pytest.param(
        check_value_agreement,
        _report(values={"a": [_mlv(AB, "present", b"x")],
                        "b": [_mlv(AB, "present", b"y")]}),
        "mlv #0 under ('a', 'b'): owners hold different encodings",
        id="value-encodings-differ"),
    pytest.param(
        check_value_agreement,
        _report(values={"a": [_mlv(AB, "present", b"x")],
                        "b": [_mlv(AB, "present", None)]}),
        "mlv #0 under ('a', 'b'): owners disagree on encodability",
        id="value-encodability-differs"),
    pytest.param(
        check_value_agreement,
        _report(values={n: [ValueRecord(AB, 0, "faceted", ("a",), "present", None)]
                        for n in AB}),
        "faceted #0 under ('a', 'b'): present at b, expected absent",
        id="value-facet-at-non-owner"),
    pytest.param(
        check_value_agreement,
        _report(values={"a": [ValueRecord(("a",), 0, "mlv", ("a",), "present", b"x")],
                        "b": [ValueRecord(("a",), 0, "mlv", ("a",), "absent", None)]}),
        "mlv #0 under ('a',): recorded at b, which is not in the census",
        id="value-record-outside-its-census"),
    pytest.param(
        partial(compare_runs, _report(results={"b": 1})),
        _report(results={"b": 2}),
        "results differ at b",
        id="oracle-results-differ"),
    pytest.param(
        partial(compare_runs, _report(branches={"a": [BranchRecord(("a",), 0, b"\x01")]})),
        _report(),
        "branch logs differ at a",
        id="oracle-branch-logs-differ"),
    pytest.param(
        partial(compare_runs, _report()),
        _report(messages=[MessageRecord("a", "b", 1, 0, t_send=0)]),
        "message counts differ",
        id="oracle-message-counts-differ"),
])
def test_invariant_checks_report_each_problem(check, report, problem):
    assert check(report) == [problem]


def test_centralized_failure_tags_the_raising_endpoint():
    def chor(b, args):
        def boom(un):
            raise CommitmentFailed("nope")

        return b.locally(b.member("b"), boom)

    report = run_centralized(chor, THREE)
    assert isinstance(report.errors()["b"], CommitmentFailed)
    assert "a" in report.errors() and "c" in report.errors()


def test_simulated_partial_failure_is_per_endpoint():
    def chor(b, args):
        def maybe_boom(loc, un):
            if loc.name == "b":
                raise CommitmentFailed("nope")
            return 0

        b.parallel(b.everyone(), maybe_boom)
        v = b.locally(b.member("b"), lambda un: 1)
        at_a = b.multicast(b.member("b"), b.subset(["a"]), v)
        return at_a

    report = run_simulated(chor, THREE)
    errors = report.errors()
    assert isinstance(errors["b"], CommitmentFailed)
    assert isinstance(errors["a"], StepBudgetExceeded)  # waits for b forever
    assert "c" not in errors  # c finishes: nothing else involves it
