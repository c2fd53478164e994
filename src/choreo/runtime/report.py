"""Run reports: per-endpoint results, message log, branch log, and the
bookkeeping the invariants are checked against.

Serialized form (golden-file friendly): one `MSG sender receiver bytes t`
line per message in send order, then one `BRANCH endpoint site outcome` line
per branch event, grouped by endpoint in census order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ChoreoError
from ..transport import MessageRecord


@dataclass
class BranchRecord:
    """Outcome of one naked/broadcast evaluation at one endpoint.

    `sig` is the census the evaluation ran under; `index` counts the
    endpoint's branch events within that census context, which is how records
    align across endpoints of the same (possibly enclaved) census.
    """

    sig: tuple[str, ...]
    index: int
    outcome: bytes


@dataclass
class ValueRecord:
    """Construction record of one located or faceted value at one endpoint.

    (sig, seq) identifies the same logical value across endpoints: all members
    of a census context execute the same operator sequence, so their per-sig
    counters align.  `state` is "present" where this endpoint holds the
    payload (for a faceted value, its own facet) and "absent" elsewhere;
    `payload` is the canonical encoding of a present located value when it
    is portable, else None.  Only projected endpoints write these, and only
    when their run is audited (`audit=True`): the centralized oracle holds
    one value, whose records always agree.
    """

    sig: tuple[str, ...]
    seq: int
    kind: str  # "mlv" | "faceted"
    owners: tuple[str, ...]
    state: str  # "present" | "absent"
    payload: bytes | None


@dataclass
class EndpointLog:
    """One endpoint's share of a run report.

    `branches` is always recorded.  `events` (send/recv/enter/exit tuples)
    and `values` (the value audit) are recorded only by a projected endpoint
    whose run asked for them with `audit=True`, which sets `audited`; the
    suites and tests that check values or events ask for it, and plain runs,
    the CLI and the benchmark do not.  The centralized oracle never records
    them: it computes one view for all members, which could not disagree.
    """

    name: str
    audited: bool = False
    events: list[tuple] = field(default_factory=list)
    branches: list[BranchRecord] = field(default_factory=list)
    values: list[ValueRecord] = field(default_factory=list)
    result: Any = None
    error: BaseException | None = None


@dataclass
class RunReport:
    census_names: tuple[str, ...]
    endpoints: dict[str, EndpointLog]
    messages: list[MessageRecord]

    @property
    def ok(self) -> bool:
        return all(log.error is None for log in self.endpoints.values())

    def errors(self) -> dict[str, BaseException]:
        return {n: log.error for n, log in self.endpoints.items() if log.error is not None}

    def _logs(self) -> list[EndpointLog]:
        """The endpoint logs this report holds, in census order; a fragment
        from `project_and_run` holds one."""
        return [self.endpoints[n] for n in self.census_names if n in self.endpoints]

    def require_success(self) -> "RunReport":
        for log in self._logs():
            if isinstance(log.error, ChoreoError):
                raise log.error
            if log.error is not None:
                raise ChoreoError(f"endpoint {log.name!r} failed: {log.error!r}") from log.error
        return self

    def result_view(self, name: str) -> Any:
        return self.endpoints[name].result

    def branch_outcomes(self, name: str) -> list[tuple[tuple[str, ...], int, str]]:
        return [(b.sig, b.index, b.outcome.hex()) for b in self.endpoints[name].branches]

    def serialize(self) -> str:
        lines = []
        for m in sorted(self.messages, key=lambda m: (m.t_send, m.sender, m.receiver)):
            lines.append(f"MSG {m.sender} {m.receiver} {m.nbytes} {m.t_send}")
        for log in self._logs():
            for b in log.branches:
                lines.append(f"BRANCH {log.name} {_site(b.sig, b.index)} {b.outcome.hex()}")
        return "\n".join(lines) + ("\n" if lines else "")


def _site(sig: tuple[str, ...], index: int) -> str:
    return "+".join(sig).replace(" ", "_") + f"#{index}"


def check_fifo(report: RunReport) -> list[str]:
    """Per ordered pair, delivered seq values must be 0,1,2,... with no gaps,
    and consumption order must follow send order.

    The consumption-order half reads `t_recv`, which only the oracle and the
    simulator stamp.  Over TCP it checks seq numbering alone: there the
    transport enforces per-pair order on arrival, failing the receive on a
    gap or duplicate seq."""
    problems = []
    by_pair: dict[tuple[str, str], list[MessageRecord]] = {}
    for m in report.messages:
        by_pair.setdefault((m.sender, m.receiver), []).append(m)
    for pair, records in sorted(by_pair.items()):
        records.sort(key=lambda m: m.t_send)
        for i, m in enumerate(records):
            if m.seq != i:
                problems.append(f"{pair}: send #{i} has seq {m.seq}")
        consumed = [m for m in records if m.t_recv is not None]
        ts = [m.t_recv for m in sorted(consumed, key=lambda m: m.seq)]
        if ts != sorted(ts):
            problems.append(f"{pair}: consumption order violates FIFO")
    return problems


def check_branch_agreement(report: RunReport) -> list[str]:
    """Knowledge-of-choice discipline: within every (possibly enclaved) census
    that evaluated branch decisions, all members logged identical outcome
    sequences."""
    problems = []
    per_sig: dict[tuple[str, ...], dict[str, list[bytes]]] = {}
    for name, log in report.endpoints.items():
        for rec in log.branches:
            per_sig.setdefault(rec.sig, {}).setdefault(name, []).append(rec.outcome)
    for sig, by_endpoint in sorted(per_sig.items()):
        sequences = {tuple(seq) for seq in by_endpoint.values()}
        if len(sequences) > 1:
            problems.append(f"branch outcomes disagree within census {sig}")
        missing = [n for n in sig if n not in by_endpoint]
        if missing and len(by_endpoint) > 0:
            problems.append(f"{missing[0]} logged no branch outcomes for census {sig}")
    return problems


def check_value_agreement(report: RunReport) -> list[str]:
    """Every located or faceted value must be present exactly at its owners,
    and a multiply-owned located value must have byte-identical canonical
    encodings at all of them.  Raises ValueError on a report that did not
    record the audit, which would otherwise pass without checking anything."""
    unaudited = [n for n, log in report.endpoints.items() if not log.audited]
    if unaudited:
        raise ValueError(
            f"no value audit recorded at {unaudited}: run the projected "
            "interpreter with audit=True"
        )
    problems = []
    groups: dict[tuple, list[tuple[str, ValueRecord]]] = {}
    for name, log in report.endpoints.items():
        for rec in log.values:
            groups.setdefault((rec.sig, rec.seq, rec.kind), []).append((name, rec))
    for (sig, seq, kind), entries in sorted(groups.items()):
        owners = entries[0][1].owners
        where = f"{kind} #{seq} under {sig}"
        if any(rec.owners != owners for _, rec in entries):
            problems.append(f"{where}: endpoints disagree on the owner set")
            continue
        for name, rec in entries:
            expect = "present" if name in owners else "absent"
            if rec.state != expect:
                problems.append(f"{where}: {rec.state} at {name}, expected {expect}")
        if kind == "mlv":
            payloads = [rec.payload for _, rec in entries if rec.state == "present"]
            if len(set(payloads) - {None}) > 1:
                problems.append(f"{where}: owners hold different encodings")
            if None in payloads and len(set(payloads)) > 1:
                problems.append(f"{where}: owners disagree on encodability")
    return problems
