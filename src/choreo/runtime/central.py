"""Centralized interpreter: every endpoint's view computed in one process.

No transport exists.  Every multicast payload is still encoded, so its byte
count and any `EncodeError` match a projected run; the recipients then share
the sender's value when it is `plain` (immutable, and of the types decoding
gives back), and get `decode` of the bytes otherwise.  `multicast` builds its
virtual message records inline (per-pair seq, the message count as clock), so
message accounting and branch logs are identical to a projected run.  This
interpreter is the oracle the simulated and TCP runs are compared against,
and it records only what they are compared on.  Every member's view derives
from one value held here, so per-member value records could never disagree:
none are written.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..errors import ContractError, RunAborted
from ..located import Faceted, MultiplyLocated, Quire
from ..locations import Census, MembershipWitness, SubsetWitness
from ..ops import CensusUnwrapper, OperatorBundle, Unwrapper, run_proc
from ..portable import decode, encode, plain
from ..seeding import location_rng
from ..transport import MessageRecord
from .report import BranchRecord, EndpointLog, RunReport
from .views import canonical_bytes, view


class _EndpointAbort(Exception):
    """Internal: a local body raised; remember whose endpoint it was."""

    def __init__(self, location: str, cause: BaseException):
        super().__init__(location)
        self.location = location
        self.cause = cause


class _CentralState:
    def __init__(self, census: Census, seed: int, inputs: dict):
        self.logs = {n: EndpointLog(n) for n in census.names}
        self.unwrappers = {
            n: Unwrapper(n, location_rng(seed, n), deque(inputs.get(n, [])))
            for n in census.names
        }
        # one count per census context: its members always record together
        self.branch_counters: dict[tuple, int] = {}
        self.seqs: dict[tuple[str, str], int] = {}
        self.messages: list[MessageRecord] = []


class CentralBundle(OperatorBundle):
    # -- core operators ----------------------------------------------------

    def locally(self, w: MembershipWitness, body) -> MultiplyLocated:
        self._require_member(w)
        name = w.location
        un = self._state.unwrappers[name]
        try:
            value = body(un)
        except _EndpointAbort:
            raise
        except Exception as exc:
            raise _EndpointAbort(name, exc) from exc
        return MultiplyLocated(w.alone, value)

    def multicast(self, s: MembershipWitness, r: SubsetWitness, v) -> MultiplyLocated:
        sender = self._check_multicast(s, r, v)
        value = v._value
        data = encode(value)
        if not plain(value):
            value = decode(data)
        nbytes = len(data)
        messages, seqs = self._state.messages, self._state.seqs
        for q in r.sub._names:
            if q != sender:
                t = len(messages)  # the oracle's clock: one tick per message
                seq = seqs.get((sender, q), 0)
                seqs[sender, q] = seq + 1
                messages.append(MessageRecord(sender, q, nbytes, seq, t, t, t))
        return MultiplyLocated(r.sub, value)

    def naked(self, v) -> Any:
        self._check_naked(v)
        sig = self._census._names
        outcome = canonical_bytes(v._value)
        index = self._state.branch_counters.get(sig, 0)
        self._state.branch_counters[sig] = index + 1
        for name in sig:
            self._state.logs[name].branches.append(BranchRecord(sig, index, outcome))
        return v._value

    def enclave(self, s: SubsetWitness, c) -> MultiplyLocated:
        proc = self._check_enclave(s, c)
        ret = proc(self._child(s.sub))
        return MultiplyLocated(s.sub, ret)

    def replicated(self, body) -> MultiplyLocated:
        un = CensusUnwrapper(self._census)
        results = [body(un) for _ in self._census.names]
        canon = [canonical_bytes(x) for x in results]
        if any(c != canon[0] for c in canon):
            raise ContractError("replicated results disagree across the census")
        return MultiplyLocated(self._census, results[0])

    def fanout(self, qs: SubsetWitness, per) -> Faceted:
        facets = self._loop_payloads(qs, per)
        return Faceted(qs.sub, facets)

    def fanin(self, qs: SubsetWitness, rs: SubsetWitness, per) -> MultiplyLocated:
        entries = self._loop_payloads(qs, per, rs)
        return MultiplyLocated(rs.sub, Quire(qs.sub, entries))

    def flatten(self, outer: SubsetWitness, inner: SubsetWitness, v) -> MultiplyLocated:
        self._check_flatten(outer, inner, v)
        value = self._check_nested(inner, v._value)
        return MultiplyLocated(outer.sub, value)

    def others_forget(self, t: SubsetWitness, v) -> MultiplyLocated:
        self._check_others_forget(t, v)
        return MultiplyLocated(t.sub, v._value)


def run_centralized(
    c, census: Census, args: Any = None, seed: int = 0, inputs: dict | None = None
) -> RunReport:
    """Run every endpoint's view of the choreography in one process.

    Failures are recorded per endpoint in the report rather than raised, so a
    failing run can still be inspected.  When a local body raises at X, X
    ends with that error and every other endpoint with `RunAborted`.  This is
    the conservative answer: one process cannot tell the endpoints that
    depend on X from those that do not.  The simulator lets independent
    endpoints finish.
    """
    proc = run_proc(c, census, args, inputs)
    state = _CentralState(census, seed, inputs or {})
    bundle = CentralBundle(state, census)
    report = RunReport(census.names, state.logs, state.messages)
    try:
        ret = proc(bundle, args)
    except _EndpointAbort as abort:
        state.logs[abort.location].error = abort.cause
        for name, log in state.logs.items():
            if name != abort.location:
                log.error = RunAborted(f"run failed at {abort.location!r}")
    except Exception as exc:  # errors outside any one endpoint's local body
        for log in state.logs.values():
            log.error = exc
    else:
        for name, log in state.logs.items():
            log.result = view(ret, name)
    return report
