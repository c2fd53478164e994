"""Conformance suites: the runnable checks behind the acceptance criteria.

Each suite returns a SuiteResult; the CLI prints them and exits nonzero on any
failure, and the acceptance tests assert on the same functions.
"""

import random
from collections import deque
from dataclasses import dataclass

from .errors import StepBudgetExceeded
from .examples import ExampleRun, build_example
from .locations import census_of
from .ops import Choreography
from .protocols import gmw as G
from .protocols.kvs import Get, Put, reference_responses
from .protocols.lottery import FIELD_MODULUS, Tamper
from .runtime import (
    check_branch_agreement,
    check_fifo,
    check_value_agreement,
    run_centralized,
    run_simulated,
)
from .seeding import location_rng

MIXED_SCRIPT = [Put("a", 7), Get("a"), Put("a", 9), Get("missing"), Get("a")]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"SUITE {self.name} {status} - {self.detail}"


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


def run_both(ex: ExampleRun, seed: int):
    central = run_centralized(ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs)
    simulated = run_simulated(ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs)
    return central, simulated


def compare_runs(ex: ExampleRun, central, simulated) -> list[str]:
    problems = []
    for name in ex.census.names:
        if central.result_view(name) != simulated.result_view(name):
            problems.append(f"{ex.name}@{name}: results differ")
        if central.branch_outcomes(name) != simulated.branch_outcomes(name):
            problems.append(f"{ex.name}@{name}: branch logs differ")
    if len(central.messages) != len(simulated.messages):
        problems.append(f"{ex.name}: message counts differ")
    problems += [f"{ex.name}: {p}" for p in check_value_agreement(simulated)]
    problems += [f"{ex.name}: {p}" for p in check_fifo(simulated)]
    problems += [f"{ex.name}: {p}" for p in check_branch_agreement(simulated)]
    return problems


def suite_oracle_equivalence(seeds: int = 20) -> SuiteResult:
    """Per-endpoint results and branch logs of simulated runs must equal the
    centralized oracle's, for every example and seed."""
    problems = []
    runs = 0
    for ex in _equivalence_examples():
        for seed in range(seeds):
            central, simulated = run_both(ex, seed)
            central.require_success()
            simulated.require_success()
            problems += compare_runs(ex, central, simulated)
            runs += 1
    detail = f"{runs} paired runs" + (f"; first problem: {problems[0]}" if problems else "")
    return SuiteResult("oracle-equivalence", not problems, detail)


def message_economy_counts(script, seed: int = 0) -> dict:
    """Counts and responses for the broadcast-vs-enclave pair on one script."""
    out = {}
    for name in ("kvs-broadcast", "kvs-enclave"):
        ex = build_example(name, script=list(script))
        report = run_simulated(ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs)
        report.require_success()
        out[name] = {
            "messages": len(report.messages),
            "responses": report.result_view("client")["map"][0][1]["value"],
        }
    return out


def suite_message_economy(seed: int = 0) -> SuiteResult:
    """The enclave variant saves exactly one message per request (Get 3 vs 4,
    Put 4 vs 5) with identical client-visible responses."""
    problems = []
    for script, expect_broadcast, expect_enclave in (
        ([Get("k")], 4, 3),
        ([Put("k", 5)], 5, 4),
        (list(MIXED_SCRIPT), None, None),
    ):
        counts = message_economy_counts(script, seed=seed)
        b, e = counts["kvs-broadcast"], counts["kvs-enclave"]
        if expect_broadcast is not None and b["messages"] != expect_broadcast:
            problems.append(f"broadcast count {b['messages']} != {expect_broadcast}")
        if expect_enclave is not None and e["messages"] != expect_enclave:
            problems.append(f"enclave count {e['messages']} != {expect_enclave}")
        if b["messages"] - e["messages"] != len(script):
            problems.append(
                f"delta {b['messages'] - e['messages']} != one per request ({len(script)})"
            )
        if b["responses"] != e["responses"]:
            problems.append("client responses differ between variants")
        if b["responses"] != reference_responses(script):
            problems.append("responses differ from the reference model")
    detail = "Get 4v3, Put 5v4, mixed delta = len(script)"
    if problems:
        detail = problems[0]
    return SuiteResult("message-economy", not problems, detail)


def gmw_check(
    parties: tuple[str, ...],
    circuits,
    seed: int = 11,
    modes: tuple[str, ...] = ("centralized",),
    seeds: tuple[int, ...] = (11,),
) -> tuple[int, list[str]]:
    """Compare shared evaluation against the plain oracle for every circuit
    and every input assignment; returns (evaluations, problems)."""
    census = census_of(parties)
    chor = Choreography(lambda b, circ: G.mpc(b, circ))
    problems = []
    evals = 0
    for circuit in circuits:
        for streams in G.input_assignments(circuit, parties):
            expected = G.eval_circuit(circuit, {p: deque(v) for p, v in streams.items()})
            for mode in modes:
                for s in seeds if mode == "simulate" else seeds[:1]:
                    if mode == "centralized":
                        report = run_centralized(chor, census, circuit, seed=s, inputs=streams)
                    else:
                        report = run_simulated(chor, census, circuit, seed=s, inputs=streams)
                    report.require_success()
                    evals += 1
                    got = {report.result_view(p) for p in parties}
                    if got != {expected}:
                        problems.append(
                            f"{G.circuit_to_text(circuit)} inputs {streams}: "
                            f"{got} != {expected} ({mode}, seed {s})"
                        )
    return evals, problems


def suite_gmw(
    parties_counts: tuple[int, ...] = (2, 3),
    exhaustive_depth: int = 2,
    depth3_samples: int = 40,
    sim_samples: int = 12,
    sim_seeds: int = 5,
) -> SuiteResult:
    """Shared circuit evaluation equals the plain oracle: exhaustively for
    gate-depth <= exhaustive_depth, on seeded depth-3 samples, and on sampled
    circuits in simulated mode with several seeds."""
    problems = []
    evals = 0
    for n in parties_counts:
        parties = tuple(f"p{i}" for i in range(1, n + 1))
        done, bad = gmw_check(parties, G.circuits_up_to(exhaustive_depth, parties))
        evals += done
        problems += bad

        rng = random.Random(1000 + n)
        samples = [G.sample_circuit(3, parties, rng) for _ in range(depth3_samples)]
        done, bad = gmw_check(parties, samples)
        evals += done
        problems += bad

        sim_rng = random.Random(2000 + n)
        sim_circuits = [G.sample_circuit(d, parties, sim_rng) for d in (0, 1, 2, 3) for _ in range(max(1, sim_samples // 4))]
        done, bad = gmw_check(
            parties,
            sim_circuits,
            modes=("centralized", "simulate"),
            seeds=tuple(range(sim_seeds)),
        )
        evals += done
        problems += bad
    detail = f"{evals} oracle comparisons"
    if problems:
        detail = f"{len(problems)} mismatches; first: {problems[0]}"
    return SuiteResult("gmw", not problems, detail)


def expected_lottery_winner(seed: int, servers: tuple[str, ...], n_clients: int,
                            draw_range: int | None = None) -> int:
    """Replay the servers' documented draw order (index draw first, salt
    second) to compute the winning client index independently."""
    if draw_range is None:
        draw_range = 8 * n_clients
    total = 0
    for name in servers:
        rng = location_rng(seed, name)
        total = (total + rng.randrange(draw_range)) % FIELD_MODULUS
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


def suite_lottery(runs: int = 100, servers: int = 3, clients: int = 4) -> SuiteResult:
    """Across seeded runs the analyst's output equals the secret of the
    replay-predicted client; openings never precede the commitments a server
    holds; tampering after commitment fails at every honest server."""
    problems = []
    server_names = tuple(f"server{i}" for i in range(1, servers + 1))
    for seed in range(runs):
        ex = build_example("lottery", servers=servers, clients=clients)
        report = run_simulated(ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs)
        report.require_success()
        winner = expected_lottery_winner(seed, server_names, clients)
        expected = ex.inputs[f"client{winner + 1}"][0] % FIELD_MODULUS
        got = report.result_view("analyst")["value"]
        if got != expected:
            problems.append(f"seed {seed}: analyst got {got}, expected {expected}")
        problems += [f"seed {seed}: {p}"
                     for p in lottery_commit_ordering_problems(report, server_names)]
        problems += [f"seed {seed}: {p}" for p in check_value_agreement(report)]

    tampered = build_example(
        "lottery", servers=servers, clients=clients, tamper=Tamper(server_names[0], "draw")
    )
    report = run_simulated(
        tampered.choreography, tampered.census, tampered.args, seed=7, inputs=tampered.inputs
    )
    errors = report.errors()
    for name in server_names:
        if type(errors.get(name)).__name__ != "CommitmentFailed":
            problems.append(f"tamper: {name} did not fail its commitment check")
    detail = f"{runs} seeded runs + tamper injection"
    if problems:
        detail = problems[0]
    return SuiteResult("lottery", not problems, detail)


def suite_deadlock(seeds: int = 50) -> SuiteResult:
    """Every example completes within the step budget under many distinct
    interleavings; the deliberately broken choreography is flagged."""
    problems = []
    runs = 0
    for ex in _equivalence_examples():
        for seed in range(seeds):
            report = run_simulated(ex.choreography, ex.census, ex.args, seed=seed, inputs=ex.inputs)
            if not report.ok:
                problems.append(f"{ex.name} seed {seed}: {report.errors()}")
            runs += 1
    broken = build_example("broken-pair")
    report = run_simulated(broken.choreography, broken.census, broken.args, seed=0)
    flagged = [e for e in report.errors().values() if isinstance(e, StepBudgetExceeded)]
    if not flagged:
        problems.append("broken-pair was not flagged StepBudgetExceeded")
    detail = f"{runs} runs completed; negative control flagged"
    if problems:
        detail = problems[0]
    return SuiteResult("deadlock-budget", not problems, detail)


def suite_negative_control() -> SuiteResult:
    """Runs the broken choreography and reports its failure; this suite is
    expected to FAIL (nonzero exit) by design."""
    broken = build_example("broken-pair")
    report = run_simulated(broken.choreography, broken.census, broken.args, seed=0)
    errors = {n: type(e).__name__ for n, e in report.errors().items()}
    return SuiteResult("negative-control", False, f"flagged as designed: {errors}")


DEFAULT_SUITES = (
    "oracle-equivalence",
    "message-economy",
    "gmw",
    "lottery",
    "deadlock-budget",
)


def run_suites(
    names=None,
    *,
    seeds: int = 20,
    deadlock_seeds: int = 50,
    lottery_runs: int = 100,
    parties_counts: tuple[int, ...] = (2, 3),
    gmw_depth: int = 2,
) -> list[SuiteResult]:
    chosen = list(names) if names else list(DEFAULT_SUITES)
    results = []
    for name in chosen:
        if name == "oracle-equivalence":
            results.append(suite_oracle_equivalence(seeds=seeds))
        elif name == "message-economy":
            results.append(suite_message_economy())
        elif name == "gmw":
            results.append(suite_gmw(parties_counts=parties_counts, exhaustive_depth=gmw_depth))
        elif name == "lottery":
            results.append(suite_lottery(runs=lottery_runs))
        elif name == "deadlock-budget":
            results.append(suite_deadlock(seeds=deadlock_seeds))
        elif name == "negative-control":
            results.append(suite_negative_control())
        else:
            raise ValueError(f"unknown suite {name!r}")
    return results
