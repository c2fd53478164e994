"""Interpreter-level properties: oracle equivalence, projection erasure,
per-endpoint randomness, report serialization, and the invariant checks
catching real divergence."""

import enum
import hashlib
from functools import partial
from typing import NamedTuple

import pytest
from conftest import run_agreeing

from choreo import (
    EMPTY,
    census_of,
    project_and_run,
    run_centralized,
    run_over_tcp,
    run_simulated,
    subset,
)
from choreo.errors import (
    ChoreoError,
    CommitmentFailed,
    EmptyCensusError,
    StepBudgetExceeded,
    WitnessMismatchError,
)
from choreo.conformance import _equivalence_examples, compare_runs
from choreo.examples import build_example, example_names
from choreo.located import _ABSENT_AT, ABSENT
from choreo.portable import Variant
from choreo.runtime import (
    BranchRecord,
    EndpointLog,
    RunReport,
    ValueRecord,
    check_branch_agreement,
    check_fifo,
    check_value_agreement,
)
from choreo.runtime import simulate
from choreo.runtime.endpoint import run_endpoint
from choreo.runtime.simulate import _own_args
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


def test_views_of_variants_bytes_censuses_and_other_values_agree():
    def chor(b, args):
        return b.locally(b.member("a"), lambda un: [Variant(3, "x"), b"\x00\xff", THREE, 0.5])

    central, _ = run_agreeing(chor, THREE)  # simulated views equal the oracle's
    shown = [{"variant": 3, "value": "x"}, {"bytes": "00ff"}, {"census": ["a", "b", "c"]},
             {"repr": "0.5"}]
    assert central.result_view("a") == {"located": ["a"], "value": shown}


class _Silent:
    """A transport for an endpoint that takes part in no communication."""

    def send(self, to, body):
        raise AssertionError("unused")

    def recv(self, frm):
        raise AssertionError("unused")


def test_run_at_location_outside_census_rejected():
    with pytest.raises(WitnessMismatchError):
        project_and_run(_relay, THREE, "zebra", _Silent(), args=1)


@pytest.mark.parametrize("run", [run_centralized, run_simulated, run_over_tcp])
def test_every_runner_refuses_an_empty_census(run):
    with pytest.raises(EmptyCensusError, match="^a run census must contain at least one location"):
        run(_relay, EMPTY, args=1)


def test_require_success_walks_the_endpoints_a_fragment_holds():
    _, fragment = project_and_run(_relay, THREE, "c", _Silent(), args=1)
    assert fragment.require_success() is fragment
    fragment.endpoints["c"].error = CommitmentFailed("c failed")
    with pytest.raises(CommitmentFailed, match="c failed"):
        fragment.require_success()


def _divides_by_zero(b, args):
    return b.locally(b.member("only"), lambda un: 1 // 0)


def test_require_success_names_the_endpoint_of_a_foreign_error():
    report = run_simulated(_divides_by_zero, census_of(["only"]))
    with pytest.raises(ChoreoError, match="^endpoint 'only' failed: ZeroDivisionError") as info:
        report.require_success()
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_project_and_run_raises_the_endpoints_own_error():
    with pytest.raises(ZeroDivisionError):
        project_and_run(_divides_by_zero, census_of(["only"]), "only", _Silent())


def test_an_endpoint_aborted_before_its_first_step_records_the_abort(monkeypatch):
    # At seed 0 with a budget of one step, r's receive trips the budget before
    # q's task has run once; q's log holds the abort all the same.
    started = []

    def recording(proc, census, name, *rest):
        started.append(name)
        return run_endpoint(proc, census, name, *rest)

    def chor(b, args):
        return b.multicast(b.member("p"), b.subset(["q", "r"]),
                           b.locally(b.member("p"), lambda un: 1))

    monkeypatch.setattr(simulate, "run_endpoint", recording)
    report = run_simulated(chor, census_of(["p", "q", "r"]), seed=0, step_budget=1)
    assert "q" not in started
    assert isinstance(report.errors()["q"], StepBudgetExceeded)


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


def test_non_owners_share_one_absent_value_per_owner_set():
    # A MultiplyLocated is never mutated, so a non-owner's operators hand out
    # one shared absent value per owner set and never run the owner's body.
    pqr, pq = census_of(["p", "q", "r"]), census_of(["p", "q"])
    ran, seen = [], {}

    def body(un):
        ran.append(un.location)
        return 1

    def chor(b, args):
        seen["locally"] = [b.locally(b.member("p"), body) for _ in range(2)]
        at_pq = b.subset(["p", "q"])
        seen["enclave"] = b.enclave(at_pq, lambda eb: eb.locally(eb.member("p"), body))
        nested = b.enclave(b.everyone(), lambda eb: eb.enclave(eb.subset(["p", "q"]), lambda _: 1))
        seen["flatten"] = b.flatten(at_pq, subset(pq, pq), nested)
        return seen["flatten"]

    project_and_run(chor, pqr, "r", transport=None)
    first, second = seen["locally"]
    assert first is second and first._value is ABSENT and first.owners.names == ("p",)
    assert seen["enclave"] is _ABSENT_AT[pq] is seen["flatten"]
    assert ran == []

    _, audited = run_agreeing(chor, pqr)
    for name, log in audited.endpoints.items():
        assert log.values
        for record in log.values:
            assert record.state == ("present" if name in record.owners else "absent")


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


def test_oracle_and_audited_runs_are_pinned():
    # One digest over the centralized and the audited simulated runs of every
    # equivalence example at seeds 0-3: the serialized report (the oracle's
    # send stamps included), and per endpoint its result view, error type and
    # value records.  A change to either interpreter that alters any of these
    # changes this digest.
    h = hashlib.sha256()
    for ex in _equivalence_examples():
        for seed in range(4):
            for report in (
                run_centralized(ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs),
                run_simulated(ex.choreography, ex.census, ex.args, seed=seed,
                              inputs=ex.inputs, audit=True),
            ):
                h.update(report.serialize().encode())
                for name in ex.census.names:
                    log = report.endpoints[name]
                    h.update(repr((name, log.result, type(log.error).__name__)).encode())
                    for r in log.values:
                        h.update(repr((r.sig, r.seq, r.kind, r.owners, r.state, r.payload)).encode())
    assert h.hexdigest() == (
        "10dd825ca82be2f535556eecd1d1602ae32f17813c816331859d99a468135b3e"
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
            if loc == "b":
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


def _reads_what_a_appended(b, args):
    # hidden shared state: a changes the run's args, then c reads it and
    # tells b what it saw
    b.locally(b.member("a"), lambda un: args.append(1))
    seen = b.locally(b.member("c"), lambda un: len(args))
    return b.multicast(b.member("c"), b.subset(["b"]), seen)


def test_each_projected_endpoint_changes_only_its_own_args():
    central = run_centralized(_reads_what_a_appended, THREE, [])
    assert central.result_view("b")["value"] == 1  # one process, one args
    runs = [run_simulated(_reads_what_a_appended, THREE, [], seed=seed, audit=True)
            for seed in range(10)]
    runs.append(run_over_tcp(_reads_what_a_appended, THREE, [], audit=True))
    for report in runs:
        report.require_success()
        # c's copy never saw a's change, whatever the schedule
        assert report.result_view("b")["value"] == 0
        assert compare_runs(central, report) == ["results differ at b"]
    args = []
    run_simulated(_reads_what_a_appended, THREE, args).require_success()
    assert args == []  # the caller's args is not changed either


@pytest.mark.parametrize("name", example_names())
def test_immutable_args_are_shared_not_copied(name):
    ex = build_example(name)
    own = _own_args(ex.args, ex.census.names)
    assert list(own) == list(ex.census.names)
    assert all(args is ex.args for args in own.values())


def _enclave_at_census_in_args(b, args):
    return b.enclave(b.subset(args[0]), lambda eb: eb.locally(eb.member("b"), lambda un: 5))


def test_a_census_in_copied_args_is_the_run_census():
    # args is a list, so each projected endpoint narrows to a deep copy of it
    args = [census_of(["a", "b"])]
    central = run_centralized(_enclave_at_census_in_args, THREE, args)
    central.require_success()
    for report in (run_simulated(_enclave_at_census_in_args, THREE, args, audit=True),
                   run_over_tcp(_enclave_at_census_in_args, THREE, args, audit=True)):
        report.require_success()
        assert compare_runs(central, report) == []
    at_b = {"located": ["b"], "value": 5}
    assert central.result_view("b") == {"located": ["a", "b"], "value": at_b}


def test_mutable_args_are_copied_per_endpoint():
    args = (1, [2], frozenset({"x"}))
    own = _own_args(args, ("a", "b"))
    assert own["a"] == own["b"] == args
    assert own["a"] is not args and own["a"][1] is not own["b"][1]


def test_a_naked_value_outside_the_grammar_logs_its_json_view():
    # A lone surrogate is not UTF-8, so encode raises EncodeError and the
    # branch log falls back to the value's JSON view at every endpoint.
    def chor(b, args):
        return b.naked(b.replicated(lambda un: "\ud800"))

    central, simulated = run_agreeing(chor, THREE)
    logs = [report.endpoints[n].branches for report in (central, simulated) for n in THREE]
    assert all(log == logs[0] for log in logs)
    assert [record.outcome for record in logs[0]] == [b'"\\ud800"']
    assert central.result_view("a") == "\ud800"


@pytest.mark.parametrize("recipients, mutator", [(["b"], "b"), (["a", "b"], "a")])
def test_a_recipient_changing_a_list_payload_leaves_the_senders_list(recipients, mutator):
    # A list is mutable, so every recipient, the sender among them, gets a
    # decoded copy rather than the sender's list.
    def chor(b, args):
        at_a = b.locally(b.member("a"), lambda un: [1])
        sent = b.multicast(b.member("a"), b.subset(recipients), at_a)
        b.locally(b.member(mutator), lambda un: un(sent).append(2))
        return b.locally(b.member("a"), lambda un: list(un(at_a)))

    central, _ = run_agreeing(chor, THREE)
    assert central.result_view("a") == {"located": ["a"], "value": [1]}


def test_a_body_changing_a_payload_its_co_owners_hold_disagrees_with_the_oracle():
    # Negative control for the rule in ops.py: the oracle hands q and r one
    # shared payload, so q's append reaches r there but not at an endpoint.
    def chor(b, args):
        at_p = b.locally(b.member("p"), lambda un: [1])
        shared = b.multicast(b.member("p"), b.subset(["q", "r"]), at_p)
        b.locally(b.member("q"), lambda un: un(shared).append(2))
        size = b.locally(b.member("r"), lambda un: len(un(shared)))
        return b.multicast(b.member("r"), b.subset(["p"]), size)

    pqr = census_of(["p", "q", "r"])
    for seed in range(3):
        central = run_centralized(chor, pqr, seed=seed)
        simulated = run_simulated(chor, pqr, seed=seed, audit=True)
        assert central.result_view("p")["value"] == 2
        assert simulated.result_view("p")["value"] == 1
        assert compare_runs(central, simulated) == ["results differ at p"]


class _Level(enum.IntEnum):
    HIGH = 2


class _Name(str):
    pass


class _Point(NamedTuple):
    x: int
    y: int


@pytest.mark.parametrize("payload, arrives_as", [
    (_Level.HIGH, "int"), (_Name("n"), "str"), (_Point(1, 2), "tuple"),
], ids=["intenum", "str-subclass", "namedtuple"])
def test_subclass_payloads_arrive_as_their_base_type(payload, arrives_as):
    # A subclass is not plain: each recipient, the sender included, reads the
    # base type that decoding gives back, under the oracle as at an endpoint.
    def chor(b, args):
        at_a = b.locally(b.member("a"), lambda un: payload)
        sent = b.multicast(b.member("a"), b.everyone(), at_a)
        return b.parallel(b.everyone(), lambda name, un: type(un(sent)).__name__)

    central, _ = run_agreeing(chor, THREE)
    for name in THREE:
        assert central.result_view(name) == {"faceted": list(THREE), "facet": arrives_as}
