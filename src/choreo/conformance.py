"""Conformance suites: the one statement of the acceptance criteria.

Each suite returns a SuiteResult.  `choreo conformance` prints them and exits
nonzero on any failure; the acceptance tests in tests/test_acceptance.py call
the same suites and assert that they pass, so each criterion is checked here
and nowhere else.

`compare_runs` is the one agreement check of a projected run, simulated or
over TCP, against the oracle.  The runs it reads, and the lottery suite's,
record the value audit (`audit=True`); the other suites, `gmw_check`
included, leave it off.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .errors import CommitmentFailed, StepBudgetExceeded
from .examples import ExampleRun, build_example
from .locations import census_of
from .ops import Choreography
from .protocols import gmw as G
from .protocols.kvs import Get, Put, reference_responses
from .protocols.lottery import FIELD_MODULUS, Tamper
from .runtime import RunReport, check_value_agreement, run_centralized, run_simulated
from .seeding import location_rng
from .transport import MessageRecord

MIXED_SCRIPT = [Put("a", 7), Get("a"), Put("a", 9), Get("missing"), Get("a")]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"SUITE {self.name} {status} - {self.detail}"


def _result(name: str, problems: list[str], detail: str) -> SuiteResult:
    """Passed with `detail` when there are no problems, else failed with the first."""
    return SuiteResult(name, not problems, problems[0] if problems else detail)


def _equivalence_examples() -> list[ExampleRun]:
    return [
        build_example("kvs-broadcast", script=list(MIXED_SCRIPT)),
        build_example("kvs-enclave", script=list(MIXED_SCRIPT)),
        build_example("kvs-error-handling", script=list(MIXED_SCRIPT), fail_puts=[2]),
        build_example("kvs-poly", backups=2, script=list(MIXED_SCRIPT)),
        build_example(
            "gmw",
            parties=3,
            circuit=G.parse_circuit("(xor (and (in p1) (in p2)) (and (in p3) (lit 1)))"),
            inputs={"p1": [True], "p2": [True], "p3": [True]},
        ),
        build_example("lottery", servers=2, clients=2),
    ]


def _by_pair(messages: list[MessageRecord]) -> dict[tuple[str, str], list[MessageRecord]]:
    """Each ordered (sender, receiver) pair's messages, in send order."""
    pairs: dict[tuple[str, str], list[MessageRecord]] = {}
    for m in sorted(messages, key=lambda m: m.t_send):
        pairs.setdefault((m.sender, m.receiver), []).append(m)
    return pairs


def compare_runs(central: RunReport, projected: RunReport) -> list[str]:
    """Each endpoint's result and branch log, and each ordered pair's
    `(seq, nbytes)` list in send order, equal the oracle's; per pair,
    consumption follows seq order where `t_recv` is stamped; and the
    audited projected run passes `check_value_agreement`.  The oracle logs a
    branch at exactly the members of its census, so equal branch logs also
    mean that every census's members logged the same outcomes."""
    problems = []
    for name in central.census_names:
        if central.result_view(name) != projected.result_view(name):
            problems.append(f"results differ at {name}")
        if central.branch_outcomes(name) != projected.branch_outcomes(name):
            problems.append(f"branch logs differ at {name}")
    expected, got = _by_pair(central.messages), _by_pair(projected.messages)
    for pair in sorted(expected.keys() | got.keys()):
        oracle, records = expected.get(pair, []), got.get(pair, [])
        if [(m.seq, m.nbytes) for m in oracle] != [(m.seq, m.nbytes) for m in records]:
            problems.append(f"{pair}: messages differ from the oracle's")
        ts = [m.t_recv for m in sorted(records, key=lambda m: m.seq) if m.t_recv is not None]
        if ts != sorted(ts):
            problems.append(f"{pair}: consumption order violates FIFO")
    return problems + check_value_agreement(projected)


def suite_oracle_equivalence() -> SuiteResult:
    """Simulated runs must agree with the centralized oracle by
    `compare_runs`, for every example and 20 seeds, and each example's
    message total must be the same for every seed."""
    problems = []
    runs = 0
    for ex in _equivalence_examples():
        totals = set()
        for seed in range(20):
            central = run_centralized(
                ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs
            )
            simulated = run_simulated(
                ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs, audit=True
            )
            central.require_success()
            simulated.require_success()
            problems += [f"{ex.name}: {p}" for p in compare_runs(central, simulated)]
            totals.add(len(simulated.messages))
            runs += 1
        if len(totals) != 1:
            problems.append(f"{ex.name}: message totals differ across seeds: {sorted(totals)}")
    return _result("oracle-equivalence", problems,
                   f"{runs} paired runs equal the oracle; message totals seed-independent")


def simulate_example(name: str, seed: int = 0, **options) -> RunReport:
    """Build example `name` from `options` and run it over the simulator."""
    ex = build_example(name, **options)
    return run_simulated(ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs)


def suite_message_economy() -> SuiteResult:
    """The enclave variant saves exactly one message per request (Get 3 vs 4,
    Put 4 vs 5) with identical client-visible responses."""
    problems = []
    for script, expect_broadcast, expect_enclave in (
        ([Get("k")], 4, 3),
        ([Put("k", 5)], 5, 4),
        (list(MIXED_SCRIPT), None, None),
    ):
        reports = [simulate_example(name, script=list(script)).require_success()
                   for name in ("kvs-broadcast", "kvs-enclave")]
        b, e = (len(report.messages) for report in reports)
        responses = [report.result_view("client")["map"][0][1]["value"] for report in reports]
        if expect_broadcast is not None and b != expect_broadcast:
            problems.append(f"broadcast count {b} != {expect_broadcast}")
        if expect_enclave is not None and e != expect_enclave:
            problems.append(f"enclave count {e} != {expect_enclave}")
        if b - e != len(script):
            problems.append(f"delta {b - e} != one per request ({len(script)})")
        if responses[0] != responses[1]:
            problems.append("client responses differ between variants")
        if responses[0] != reference_responses(script):
            problems.append("responses differ from the reference model")
    return _result("message-economy", problems, "Get 4v3, Put 5v4, mixed delta = len(script)")


def gmw_check(
    parties: tuple[str, ...], circuits, sim_seeds: tuple[int, ...] = ()
) -> tuple[int, list[str]]:
    """Compare shared evaluation against the plain oracle for every circuit
    and every input assignment, run centrally at seed 11 and then simulated
    under each of `sim_seeds`; returns (evaluations, problems)."""
    census = census_of(parties)
    chor = Choreography(lambda b, circ: G.mpc(b, circ))
    runs = [("centralized", 11, run_centralized)]
    runs += [("simulate", s, run_simulated) for s in sim_seeds]
    problems = []
    evals = 0
    for circuit in circuits:
        for streams in G.input_assignments(circuit, parties):
            expected = G.eval_circuit(circuit, {p: deque(v) for p, v in streams.items()})
            for mode, s, run in runs:
                report = run(chor, census, circuit, seed=s, inputs=streams)
                report.require_success()
                evals += 1
                got = {report.result_view(p) for p in parties}
                if got != {expected}:
                    problems.append(
                        f"{G.circuit_to_text(circuit)} inputs {streams}: "
                        f"{got} != {expected} ({mode}, seed {s})"
                    )
    return evals, problems


def suite_gmw(parties_counts: tuple[int, ...] = (2, 3)) -> SuiteResult:
    """Shared circuit evaluation equals the plain oracle: exhaustively for
    gate-depth <= 2, on 40 seeded depth-3 samples, and on 3 sampled circuits
    per depth 0-3 also simulated with 5 seeds."""
    problems = []
    evals = 0
    for n in parties_counts:
        parties = tuple(f"p{i}" for i in range(1, n + 1))
        rng, sim_rng = random.Random(1000 + n), random.Random(2000 + n)
        for circuits, sim_seeds in (
            (G.circuits_up_to(2, parties), ()),
            ([G.sample_circuit(3, parties, rng) for _ in range(40)], ()),
            ([G.sample_circuit(d, parties, sim_rng) for d in (0, 1, 2, 3) for _ in range(3)],
             tuple(range(5))),
        ):
            done, bad = gmw_check(parties, circuits, sim_seeds)
            evals += done
            problems += bad
    return _result("gmw", problems, f"{evals} oracle comparisons")


def expected_lottery_winner(seed: int, servers: tuple[str, ...], n_clients: int) -> int:
    """Replay the servers' documented draws (an index contribution below
    8 * n_clients, then a salt) to compute the winning index independently."""
    total = 0
    for name in servers:
        rng = location_rng(seed, name)
        total = (total + rng.randrange(8 * n_clients)) % FIELD_MODULUS
    return total % n_clients


def lottery_commit_ordering_problems(report, servers: tuple[str, ...]) -> list[str]:
    """Per server: every commitment it receives must be consumed before its
    first opening send.  Server-to-server traffic per ordered pair is exactly
    [commitment, salt, draw], identified by seq."""
    problems = []
    server_set = set(servers)
    for s in servers:
        commit_recvs = [
            m.t_recv
            for m in report.messages
            if m.receiver == s and m.sender in server_set and m.seq == 0
        ]
        open_sends = [
            m.t_send
            for m in report.messages
            if m.sender == s and m.receiver in server_set and m.seq in (1, 2)
        ]
        if any(t is None for t in commit_recvs):
            problems.append(f"{s}: unconsumed commitment")
            continue
        if commit_recvs and open_sends and max(commit_recvs) >= min(open_sends):
            problems.append(f"{s}: opened before receiving every commitment")
    return problems


def suite_lottery() -> SuiteResult:
    """Across 100 seeded runs of 3 servers and 4 clients the analyst's output
    equals the secret of the replay-predicted client, openings never precede
    the commitments a server holds, and owners agree on every value;
    tampering after commitment, at the first or the last server, fails the
    commitment check at every server."""
    problems = []
    server_names = ("server1", "server2", "server3")
    for seed in range(100):
        ex = build_example("lottery", servers=3, clients=4)
        report = run_simulated(
            ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs, audit=True
        )
        report.require_success()
        winner = expected_lottery_winner(seed, server_names, 4)
        expected = ex.inputs[f"client{winner + 1}"][0] % FIELD_MODULUS
        got = report.result_view("analyst")["value"]
        if got != expected:
            problems.append(f"seed {seed}: analyst got {got}, expected {expected}")
        problems += [f"seed {seed}: {p}"
                     for p in lottery_commit_ordering_problems(report, server_names)]
        problems += [f"seed {seed}: {p}" for p in check_value_agreement(report)]

    for tamperer, seed in (("server1", 7), ("server3", 5)):
        errors = simulate_example(
            "lottery", seed, servers=3, clients=4, tamper=Tamper(tamperer, "draw")
        ).errors()
        for name in server_names:
            if not isinstance(errors.get(name), CommitmentFailed):
                problems.append(f"tamper at {tamperer}: {name} did not fail its commitment check")
    return _result("lottery", problems,
                   "100 seeded runs select the predicted secret; openings wait for all "
                   "commitments; tamper at server1 or server3 fails every server")


def suite_deadlock() -> SuiteResult:
    """Every example completes within the step budget under 50 distinct
    interleavings; the deliberately broken choreography is flagged."""
    problems = []
    runs = 0
    for ex in _equivalence_examples():
        for seed in range(50):
            report = run_simulated(ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs)
            if not report.ok:
                problems.append(f"{ex.name} seed {seed}: {report.errors()}")
            runs += 1
    errors = simulate_example("broken-pair").errors()
    flagged = [e for e in errors.values() if isinstance(e, StepBudgetExceeded)]
    if not flagged:
        problems.append("broken-pair was not flagged StepBudgetExceeded")
    return _result("deadlock-budget", problems, f"{runs} runs completed; negative control flagged")


def suite_negative_control() -> SuiteResult:
    """Runs the broken choreography and reports its failure; this suite is
    expected to FAIL (nonzero exit) by design."""
    errors = {n: type(e).__name__ for n, e in simulate_example("broken-pair").errors().items()}
    return SuiteResult("negative-control", False, f"flagged as designed: {errors}")


DEFAULT_SUITES = (
    "oracle-equivalence",
    "message-economy",
    "gmw",
    "lottery",
    "deadlock-budget",
)


def run_suites(names=None, parties_counts: tuple[int, ...] = (2, 3)) -> list[SuiteResult]:
    suites = {
        "oracle-equivalence": suite_oracle_equivalence,
        "message-economy": suite_message_economy,
        "gmw": lambda: suite_gmw(parties_counts),
        "lottery": suite_lottery,
        "deadlock-budget": suite_deadlock,
        "negative-control": suite_negative_control,
    }
    results = []
    for name in names or DEFAULT_SUITES:
        if name not in suites:
            raise ValueError(f"unknown suite {name!r}")
        results.append(suites[name]())
    return results
