"""Operator semantics: message counts, ownership, errors, and cross-mode
agreement for each operator of the bundle."""

from functools import partial

import pytest
from conftest import fails_everywhere, run_agreeing

from choreo import (
    Census,
    Choreography,
    census_of,
    project_and_run,
    run_centralized,
    run_simulated,
    subset,
)
from choreo.errors import (
    CensusNotOwnedError,
    ContractError,
    EmptyCensusError,
    InputExhaustedError,
    NotAnOwnerError,
    UnwrapAbsentError,
    WitnessMismatchError,
)
from choreo.located import MultiplyLocated, Quire

PCH = census_of(["p", "q", "r"])

# A broken operator contract must raise the same error type at every endpoint
# under the centralized oracle and under the endpoint projection.
RUNNERS = pytest.mark.parametrize(
    "run", [run_centralized, run_simulated], ids=["run_centralized", "run_simulated"]
)


def test_locally_constant_no_messages():
    def chor(b, args):
        return b.locally(b.member("p"), lambda un: 7)

    central, simulated = run_agreeing(chor, PCH)
    assert len(simulated.messages) == 0
    assert central.result_view("p") == {"located": ["p"], "value": 7}
    assert central.result_view("q") == {"located": ["p"], "value": "?absent"}


def test_locally_unwrap_foreign_value_fails():
    def chor(b, args):
        at_q = b.locally(b.member("q"), lambda un: 1)
        return b.locally(b.member("p"), lambda un: un(at_q))

    report = run_simulated(chor, PCH)
    assert isinstance(report.errors()["p"], UnwrapAbsentError)


def test_multicast_counts_and_ownership():
    # sender in the recipient set: one message per other recipient
    def chor(b, args):
        v = b.locally(b.member("p"), lambda un: "x")
        return b.multicast(b.member("p"), b.everyone(), v)

    central, simulated = run_agreeing(chor, PCH)
    assert len(simulated.messages) == 2

    # recipients = {sender}: the self-send is elided
    def self_only(b, args):
        v = b.locally(b.member("p"), lambda un: "x")
        return b.multicast(b.member("p"), b.subset(["p"]), v)

    _, simulated = run_agreeing(self_only, PCH)
    assert len(simulated.messages) == 0

    # point to point: exactly one message
    def one(b, args):
        v = b.locally(b.member("p"), lambda un: "x")
        return b.multicast(b.member("p"), b.subset(["q"]), v)

    central, simulated = run_agreeing(one, PCH)
    assert len(simulated.messages) == 1
    # the sender is not in the recipient set, so it no longer owns the value
    assert central.result_view("p") == {"located": ["q"], "value": "?absent"}
    assert central.result_view("q") == {"located": ["q"], "value": "x"}


@RUNNERS
def test_multicast_requires_ownership_and_recipients(run):
    def not_owner(b, args):
        v = b.locally(b.member("q"), lambda un: 1)
        return b.multicast(b.member("p"), b.everyone(), v)

    fails_everywhere(run(not_owner, PCH), NotAnOwnerError)

    def nobody(b, args):
        v = b.locally(b.member("p"), lambda un: 1)
        return b.multicast(b.member("p"), b.subset([]), v)

    fails_everywhere(run(nobody, PCH), EmptyCensusError)


def test_broadcast_counts():
    def chor(b, args):
        v = b.locally(b.member("q"), lambda un: 41)
        return b.broadcast(b.member("q"), v) + 1

    central, simulated = run_agreeing(chor, PCH)
    assert len(simulated.messages) == 2  # census size minus one
    assert all(central.result_view(n) == 42 for n in PCH.names)

    single = census_of(["solo"])

    def alone(b, args):
        v = b.locally(b.member("solo"), lambda un: 1)
        return b.broadcast(b.member("solo"), v)

    _, simulated = run_agreeing(alone, single)
    assert len(simulated.messages) == 0


@RUNNERS
def test_naked_requires_census_ownership(run):
    def chor(b, args):
        v = b.locally(b.member("p"), lambda un: 5)
        return b.naked(v)

    fails_everywhere(run(chor, PCH), CensusNotOwnedError)

    def ok(b, args):
        v = b.locally(b.member("p"), lambda un: 5)
        shared = b.multicast(b.member("p"), b.everyone(), v)
        return b.naked(shared)

    central, _ = run_agreeing(ok, PCH)
    assert all(central.result_view(n) == 5 for n in PCH.names)


def test_enclave_silence_and_identity():
    # members run the sub-choreography, outsiders skip it entirely
    def chor(b, args):
        servers = b.subset(["q", "r"])

        def inner(eb):
            v = eb.locally(eb.member("q"), lambda un: 10)
            return eb.broadcast(eb.member("q"), v)

        return b.enclave(servers, inner)

    # run_agreeing also fails if p records anything under census (q, r)
    central, simulated = run_agreeing(chor, PCH)
    assert [(m.sender, m.receiver) for m in simulated.messages] == [("q", "r")]
    assert central.result_view("p") == {"located": ["q", "r"], "value": "?absent"}
    assert central.result_view("q") == {"located": ["q", "r"], "value": 10}

    # enclave over the whole census behaves like running the body directly
    def identity(b, args):
        return b.enclave(b.everyone(), lambda eb: 3)

    central, simulated = run_agreeing(identity, PCH)
    assert len(simulated.messages) == 0
    assert central.result_view("p") == {"located": ["p", "q", "r"], "value": 3}


def test_sub_choreographies_may_be_declared_or_any_callable():
    # an enclave takes a Choreography declaring the narrowed census, and an
    # enclave or a fanout takes a callable that is not a plain function
    def at(name, b):
        return b.locally(b.member(name), lambda un: name)

    def chor(b, args):
        servers = b.subset(["q", "r"])
        declared = b.enclave(servers, Choreography(lambda eb, a: 4, census=servers.sub))
        called = b.enclave(servers, partial(at, "r"))
        facets = b.fanout(b.everyone(), lambda w: partial(at, w.location))
        return [declared, called, facets]

    central, _ = run_agreeing(chor, PCH)
    assert central.result_view("r") == [
        {"located": ["q", "r"], "value": 4},
        {"located": ["q", "r"], "value": {"located": ["r"], "value": "r"}},
        {"faceted": ["p", "q", "r"], "facet": "r"},
    ]


def test_sequential_enclaves_reuse_decision_without_messages():
    # the second enclave consumes the first one's value with zero messages
    def chor(b, args):
        servers = b.subset(["q", "r"])

        def decide(eb):
            v = eb.locally(eb.member("q"), lambda un: True)
            return eb.broadcast(eb.member("q"), v)

        decision = b.enclave(servers, decide)

        def follow(eb):
            return 1 if eb.naked(decision) else 2

        return b.enclave(servers, follow)

    central, simulated = run_agreeing(chor, PCH)
    assert len(simulated.messages) == 1  # only the first enclave's broadcast
    assert central.result_view("q") == {"located": ["q", "r"], "value": 1}


def test_replicated_agreement_and_scope():
    def chor(b, args):
        v = b.locally(b.member("p"), lambda un: 6)
        shared = b.multicast(b.member("p"), b.everyone(), v)
        return b.replicated(lambda un: un(shared) * 7)

    central, simulated = run_agreeing(chor, PCH)
    assert len(simulated.messages) == 2
    assert central.result_view("r") == {"located": ["p", "q", "r"], "value": 42}

    def bad(b, args):
        v = b.locally(b.member("p"), lambda un: 6)
        return b.replicated(lambda un: un(v))

    fails_everywhere(run_centralized(bad, PCH), UnwrapAbsentError)


def test_replicated_divergence_is_caught():
    counter = iter(range(100))

    def impure(b, args):
        return b.replicated(lambda un: next(counter))

    fails_everywhere(run_centralized(impure, PCH), ContractError)


def test_fanout_empty_and_constant():
    def empty(b, args):
        return b.fanout(b.subset([]), lambda q: lambda bb: None)

    central, simulated = run_agreeing(empty, PCH)
    assert central.result_view("p") == {"faceted": [], "facet": "?absent"}
    assert len(simulated.messages) == 0

    def constant(b, args):
        def per(q_w):
            return lambda bb: bb.locally(q_w, lambda un: "k")

        return b.fanout(b.everyone(), per)

    central, _ = run_agreeing(constant, PCH)
    for name in PCH.names:
        assert central.result_view(name) == {"faceted": ["p", "q", "r"], "facet": "k"}


def test_fanin_collects_in_order():
    def chor(b, args):
        def per(q_w):
            def send(bb):
                v = bb.locally(q_w, lambda un: q_w.location.upper())
                return bb.multicast(q_w, bb.subset(["r"]), v)

            return send

        return b.fanin(b.everyone(), b.subset(["r"]), per)

    central, simulated = run_agreeing(chor, PCH)
    # p->r and q->r; r's own entry is local
    assert len(simulated.messages) == 2
    assert central.result_view("r") == {
        "located": ["r"],
        "value": {"quire": [["p", "P"], ["q", "Q"], ["r", "R"]]},
    }
    assert central.result_view("p") == {"located": ["r"], "value": "?absent"}

    def empty(b, args):
        return b.fanin(b.subset([]), b.subset(["r"]), lambda q: lambda bb: None)

    central, _ = run_agreeing(empty, PCH)
    assert central.result_view("r") == {"located": ["r"], "value": {"quire": []}}


def test_parallel_facets_differ():
    def chor(b, args):
        return b.parallel(b.everyone(), lambda loc, un: loc * 2)

    central, simulated = run_agreeing(chor, PCH)
    assert len(simulated.messages) == 0
    assert central.result_view("p")["facet"] == "pp"
    assert central.result_view("q")["facet"] == "qq"


def test_naked_faceted_payload_logs_agree():
    # a faceted or located payload inside a naked value reads as absent in a
    # branch log under every interpreter, the oracle included
    for inner in (
        lambda eb: eb.parallel(eb.everyone(), lambda loc, un: 1),
        lambda eb: eb.locally(eb.member("p"), lambda un: 5),
    ):
        run_agreeing(lambda b, args: b.naked(b.enclave(b.everyone(), inner)), PCH)


def test_scatter_counts_and_privacy():
    def chor(b, args):
        keys = b.census

        def build(un):
            return Quire(keys, {n: f"leaf-{n}" for n in keys.names})

        quire = b.locally(b.member("p"), build)
        return b.scatter(b.member("p"), b.everyone(), quire)

    central, simulated = run_agreeing(chor, PCH)
    assert len(simulated.messages) == 2  # sender's own leaf stays local
    assert central.result_view("q")["facet"] == "leaf-q"
    assert central.result_view("p")["facet"] == "leaf-p"

    def self_only(b, args):
        quire = b.locally(
            b.member("p"), lambda un: Quire(census_of(["p"]), {"p": 1})
        )
        return b.scatter(b.member("p"), b.subset(["p"]), quire)

    _, simulated = run_agreeing(self_only, PCH)
    assert len(simulated.messages) == 0


def test_scatter_four_recipients_three_messages():
    four = census_of(["a", "b", "c", "d"])

    def chor(b, args):
        quire = b.locally(
            b.member("a"), lambda un: Quire(four, {n: n for n in four.names})
        )
        return b.scatter(b.member("a"), b.everyone(), quire)

    _, simulated = run_agreeing(chor, four)
    assert len(simulated.messages) == 3


def test_gather_counts_and_order():
    def chor(b, args):
        facets = b.parallel(b.everyone(), lambda loc, un: loc)
        return b.gather(b.everyone(), b.subset(["q"]), facets)

    central, simulated = run_agreeing(chor, PCH)
    assert len(simulated.messages) == 2
    assert central.result_view("q")["value"]["quire"] == [["p", "p"], ["q", "q"], ["r", "r"]]

    def to_all(b, args):
        facets = b.parallel(b.everyone(), lambda loc, un: loc)
        return b.gather(b.everyone(), b.everyone(), facets)

    _, simulated = run_agreeing(to_all, PCH)
    assert len(simulated.messages) == 6  # n * (n - 1)


def test_flatten_and_others_forget():
    def chor(b, args):
        servers = b.subset(["q", "r"])

        def inner(eb):
            return eb.locally(eb.member("q"), lambda un: 9)

        nested = b.enclave(servers, inner)
        q_only = census_of(["q"])
        return b.flatten(subset(q_only, servers.sub), subset(q_only, q_only), nested)

    central, simulated = run_agreeing(chor, PCH)
    assert len(simulated.messages) == 0
    assert central.result_view("q") == {"located": ["q"], "value": 9}
    assert central.result_view("r") == {"located": ["q"], "value": "?absent"}

    def forget(b, args):
        v = b.locally(b.member("p"), lambda un: 1)
        shared = b.multicast(b.member("p"), b.everyone(), v)
        return b.others_forget(subset(census_of(["q"]), b.census), shared)

    central, _ = run_agreeing(forget, PCH)
    assert central.result_view("q") == {"located": ["q"], "value": 1}
    assert central.result_view("p") == {"located": ["q"], "value": "?absent"}
    assert central.result_view("r") == {"located": ["q"], "value": "?absent"}


@RUNNERS
def test_reshaping_accepts_a_census_built_directly(run):
    # A Census built directly is the census of its names, so owner sets built
    # that way pass the identity checks of flatten, others_forget and naked.
    def direct(*names):
        return Census(names)

    def chor(b, args):
        pq = direct("p", "q")
        assert pq is census_of(["p", "q"])
        q_in_pq = subset(census_of(["q"]), census_of(["p", "q"]))
        flat = b.flatten(q_in_pq, q_in_pq, MultiplyLocated(pq, MultiplyLocated(pq, 5)))
        kept = b.others_forget(q_in_pq, MultiplyLocated(pq, 6))
        bare = b.naked(MultiplyLocated(direct(*b.census.names), 7))
        return b.locally(b.member("q"), lambda un: un(flat) + un(kept) + bare)

    report = run(chor, PCH)
    report.require_success()
    assert report.result_view("q") == {"located": ["q"], "value": 18}


@RUNNERS
def test_witness_must_match_bundle_census(run):
    other = census_of(["p", "q"])

    def chor(b, args):
        from choreo import member

        return b.locally(member("p", other), lambda un: 1)

    fails_everywhere(run(chor, PCH), WitnessMismatchError)


def _shared(b):
    v = b.locally(b.member("p"), lambda un: 1)
    return b.multicast(b.member("p"), b.everyone(), v)


def _nested(b):
    return b.enclave(b.everyone(), lambda eb: _shared(eb))


def _empty_enclave(b, args):
    return b.enclave(b.subset([]), lambda eb: 1)


def _fanout_wrong_shape(b, args):
    return b.fanout(b.everyone(), lambda q: lambda bb: bb.locally(bb.member("p"), lambda un: 1))


def _fanout_not_located(b, args):
    return b.fanout(b.everyone(), lambda q: lambda bb: 1)


def _fanin_to_nobody(b, args):
    return b.fanin(b.everyone(), b.subset([]), lambda q: lambda bb: None)


def _fanin_wrong_owners(b, args):
    def per(q):
        return lambda bb: bb.locally(q, lambda un: 1)

    return b.fanin(b.everyone(), b.subset(["r"]), per)


def _enclave_of_a_non_callable(b, args):
    return b.enclave(b.subset(["p", "q"]), 42)  # r, a non-member, must fail too


def _flatten_outer_off_owners(b, args):
    p = census_of(["p"])
    return b.flatten(subset(p, census_of(["p", "q"])), subset(p, PCH), _nested(b))


def _flatten_narrowed_sets_differ(b, args):
    return b.flatten(b.everyone(), b.subset(["p"]), _nested(b))


def _flatten_inner_off_nested_owners(b, args):
    wider = subset(PCH, census_of(["p", "q", "r", "s"]))
    return b.flatten(b.everyone(), wider, _nested(b))


def _flatten_to_nobody(b, args):
    return b.flatten(b.subset([]), b.subset([]), _nested(b))


def _flatten_not_nested(b, args):
    everyone = b.everyone()
    return b.flatten(everyone, everyone, _shared(b))


def _forget_to_nobody(b, args):
    return b.others_forget(b.subset([]), _shared(b))


def _forget_off_owners(b, args):
    v = b.locally(b.member("p"), lambda un: 1)
    return b.others_forget(b.subset(["p"]), v)


def _replicated_reads_rng(b, args):
    return b.replicated(lambda un: un.rng)


def _replicated_reads_input(b, args):
    return b.replicated(lambda un: un.next_input())


def _replicated_unwraps_a_bare_value(b, args):
    return b.replicated(lambda un: un(42))


def _replicated_unwraps_a_faceted_value(b, args):
    f = b.parallel(b.everyone(), lambda name, un: name)
    return b.replicated(lambda un: un(f))


@RUNNERS
@pytest.mark.parametrize(
    "chor, error",
    [
        (_empty_enclave, EmptyCensusError),
        (_enclave_of_a_non_callable, ContractError),
        (_fanout_wrong_shape, ContractError),
        (_fanout_not_located, ContractError),
        (_fanin_to_nobody, EmptyCensusError),
        (_fanin_wrong_owners, ContractError),
        (_flatten_outer_off_owners, WitnessMismatchError),
        (_flatten_narrowed_sets_differ, WitnessMismatchError),
        (_flatten_inner_off_nested_owners, WitnessMismatchError),
        (_flatten_to_nobody, EmptyCensusError),
        (_flatten_not_nested, ContractError),
        (_forget_to_nobody, EmptyCensusError),
        (_forget_off_owners, WitnessMismatchError),
        (_replicated_reads_rng, ContractError),
        (_replicated_reads_input, ContractError),
        (_replicated_unwraps_a_bare_value, ContractError),
        (_replicated_unwraps_a_faceted_value, UnwrapAbsentError),
    ],
)
def test_contract_violations_fail_at_every_endpoint(run, chor, error):
    fails_everywhere(run(chor, PCH), error)


@RUNNERS
def test_reading_past_the_input_stream_fails_at_the_reader(run):
    def chor(b, args):
        return b.locally(b.member("q"), lambda un: [un.next_input(), un.next_input()])

    error = run(chor, PCH, inputs={"q": [1]}).errors()["q"]
    assert isinstance(error, InputExhaustedError)
    assert str(error) == "input stream for 'q' is empty"


@RUNNERS
def test_reshaping_takes_only_subset_witnesses(run):
    def flatten_census(b, args):
        return b.flatten(b.census, b.census, _nested(b))

    fails_everywhere(run(flatten_census, PCH), WitnessMismatchError)

    def forget_to_member(b, args):
        return b.others_forget(b.member("p"), _shared(b))

    fails_everywhere(run(forget_to_member, PCH), WitnessMismatchError)


def test_declared_census_must_match_the_run():
    other = census_of(["p", "q"])
    declared = Choreography(lambda b, args: None, census=other)
    message = r"declared census \('p', 'q'\), got \('p', 'q', 'r'\)"
    with pytest.raises(WitnessMismatchError, match=message):
        run_centralized(declared, PCH)
    with pytest.raises(WitnessMismatchError, match=message):
        run_simulated(declared, PCH)
    with pytest.raises(WitnessMismatchError, match=message):
        project_and_run(declared, PCH, "p", transport=None)  # fails before any I/O

    def enclave_of_declared(members, declared):
        sub = Choreography(lambda eb, a: 1, census=declared)
        return lambda b, args: b.enclave(b.subset(members), sub)

    # the enclave of p and q has a non-member, r, which must fail too
    for members, declared in ((["p", "q", "r"], other), (["p", "q"], PCH)):
        for run in (run_centralized, run_simulated):
            report = run(enclave_of_declared(members, declared), PCH)
            fails_everywhere(report, WitnessMismatchError)
            under = f"running under {tuple(members)}"
            assert all(under in str(e) for e in report.errors().values())


def _p_unwraps_a_value_at_q(b, args):
    at_q = b.locally(b.member("q"), lambda un: 1)
    return b.locally(b.member("p"), lambda un: un(at_q))


def _p_unwraps_a_facet_of_q_and_r(b, args):
    f = b.parallel(b.subset(["q", "r"]), lambda name, un: name)
    return b.locally(b.member("p"), lambda un: un(f))


def _p_unwraps_a_bare_value(b, args):
    return b.locally(b.member("p"), lambda un: un(42))


def _replicated_unwraps_a_value_at_p(b, args):
    v = b.locally(b.member("p"), lambda un: 6)
    return b.replicated(lambda un: un(v))


@RUNNERS
@pytest.mark.parametrize(
    "chor, where, error, text",
    [
        (_p_unwraps_a_value_at_q, ["p"], UnwrapAbsentError,
         "'p' does not own the value (owners: ('q',))"),
        (_p_unwraps_a_facet_of_q_and_r, ["p"], UnwrapAbsentError,
         "'p' does not own the value (owners: ('q', 'r'))"),
        (_p_unwraps_a_bare_value, ["p"], ContractError, "cannot unwrap int"),
        (_replicated_unwraps_a_bare_value, PCH.names, ContractError, "cannot unwrap int"),
        (_replicated_reads_rng, PCH.names, ContractError,
         "replicated bodies have no local randomness"),
        (_replicated_reads_input, PCH.names, ContractError,
         "replicated bodies have no input stream"),
        (_replicated_unwraps_a_faceted_value, PCH.names, UnwrapAbsentError,
         "faceted values have no census-agreed reading"),
        (_replicated_unwraps_a_value_at_p, PCH.names, UnwrapAbsentError,
         "census member 'q' does not own the value"),
    ],
)
def test_unwrap_errors_say_what_went_wrong(run, chor, where, error, text):
    # The oracle aborts every other endpoint; the simulator lets them finish.
    errors = run(chor, PCH).errors()
    for name in where:
        assert type(errors[name]) is error and str(errors[name]) == text
