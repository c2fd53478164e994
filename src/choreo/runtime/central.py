"""Centralized interpreter: every endpoint's view computed in one process.

No transport exists; multicasts still round-trip their payloads through the
canonical codec and append virtual message records, so message accounting and
branch logs are identical to a projected run.  This interpreter is the oracle
the simulated and TCP runs are compared against.
"""

from collections import deque
from typing import Any

from ..errors import ContractError, RunAborted
from ..located import Faceted, MultiplyLocated, Quire, _located
from ..locations import Census, MembershipWitness, SubsetWitness
from ..ops import OperatorBundle, Unwrapper, run_proc
from ..portable import decode, encode
from ..seeding import location_rng
from ..transport import MessageRecord
from .report import BranchRecord, EndpointLog, RunReport, ValueRecord
from .views import canonical_bytes, try_encode, view


class _EndpointAbort(Exception):
    """Internal: a local body raised; remember whose endpoint it was."""

    def __init__(self, location: str, cause: BaseException):
        super().__init__(location)
        self.location = location
        self.cause = cause


class _CentralState:
    def __init__(self, census: Census, seed: int, inputs: dict):
        self.clock = 0
        self.logs = {n: EndpointLog(n) for n in census.names}
        self.rngs = {n: location_rng(seed, n) for n in census.names}
        self.inputs = {n: deque(inputs.get(n, [])) for n in census.names}
        # one count per census context: its members always record together
        self.value_counters: dict[tuple, int] = {}
        self.branch_counters: dict[tuple, int] = {}
        self.seqs: dict[tuple[str, str], int] = {}
        self.messages: list[MessageRecord] = []

    def tick(self) -> int:
        t = self.clock
        self.clock += 1
        return t

    def next_seq(self, sender: str, receiver: str) -> int:
        seq = self.seqs.get((sender, receiver), 0)
        self.seqs[(sender, receiver)] = seq + 1
        return seq


class CentralBundle(OperatorBundle):
    def __init__(self, state: _CentralState, census: Census):
        super().__init__(census)
        self._state = state

    def _child(self, census: Census) -> "CentralBundle":
        return CentralBundle(self._state, census)

    # -- recording --------------------------------------------------------

    def _record_mlv(self, mlv: MultiplyLocated) -> MultiplyLocated:
        sig = self._census.names
        payload = try_encode(mlv._value)
        seq = self._state.value_counters.get(sig, 0)
        self._state.value_counters[sig] = seq + 1
        for name in sig:
            state = "present" if name in mlv.owners else "absent"
            self._state.logs[name].values.append(
                ValueRecord(sig, seq, "mlv", mlv.owners.names, state,
                            payload if state == "present" else None)
            )
        return mlv

    def _record_faceted(self, f: Faceted) -> Faceted:
        sig = self._census.names
        seq = self._state.value_counters.get(sig, 0)
        self._state.value_counters[sig] = seq + 1
        for name in sig:
            if name in f.owners:
                state, payload = "facet", try_encode(f._facets[name])
            else:
                state, payload = "nofacet", None
            self._state.logs[name].values.append(
                ValueRecord(sig, seq, "faceted", f.owners.names, state, payload)
            )
        return f

    def _record_branch(self, value: Any) -> None:
        sig = self._census.names
        outcome = canonical_bytes(value)
        index = self._state.branch_counters.get(sig, 0)
        self._state.branch_counters[sig] = index + 1
        for name in sig:
            self._state.logs[name].branches.append(BranchRecord(sig, index, outcome))

    # -- core operators ----------------------------------------------------

    def locally(self, w: MembershipWitness, body) -> MultiplyLocated:
        self._require_member(w)
        name = w.location.name
        un = Unwrapper(w.location, self._state.rngs[name], self._state.inputs[name], None)
        try:
            value = body(un)
        except _EndpointAbort:
            raise
        except Exception as exc:
            raise _EndpointAbort(name, exc) from exc
        return self._record_mlv(_located(Census((w.location,)), True, value))

    def multicast(self, s: MembershipWitness, r: SubsetWitness, v) -> MultiplyLocated:
        sender = self._check_multicast(s, r, v)
        data = encode(v._value)
        value = decode(data)
        for q in r.sub.names:
            if q == sender:
                continue
            t = self._state.tick()
            self._state.messages.append(
                MessageRecord(sender, q, len(data), self._state.next_seq(sender, q),
                              t_send=t, t_deliver=t, t_recv=t)
            )
            self._state.logs[sender].events.append(("send", q, len(data)))
            self._state.logs[q].events.append(("recv", sender, len(data)))
        return self._record_mlv(_located(r.sub, True, value))

    def naked(self, v) -> Any:
        self._check_naked(v)
        self._record_branch(v._value)
        return v._value

    def enclave(self, s: SubsetWitness, c) -> MultiplyLocated:
        proc = self._check_enclave(s, c)
        sig = s.sub.names
        for name in sig:
            self._state.logs[name].events.append(("enter", sig))
        ret = proc(self._child(s.sub))
        for name in sig:
            self._state.logs[name].events.append(("exit", sig))
        return self._record_mlv(_located(s.sub, True, ret))

    def replicated(self, body) -> MultiplyLocated:
        un = Unwrapper(None, None, None, self._census)
        results = [body(un) for _ in self._census.names]
        canon = [canonical_bytes(x) for x in results]
        if any(c != canon[0] for c in canon):
            raise ContractError("replicated results disagree across the census")
        return self._record_mlv(_located(self._census, True, results[0]))

    def fanout(self, qs: SubsetWitness, per) -> Faceted:
        facets = self._fanout_payloads(qs, per)
        return self._record_faceted(Faceted(qs.sub, facets))

    def fanin(self, qs: SubsetWitness, rs: SubsetWitness, per) -> MultiplyLocated:
        entries = self._fanin_payloads(qs, rs, per)
        return self._record_mlv(_located(rs.sub, True, Quire(qs.sub, entries)))

    def flatten(self, outer: SubsetWitness, inner: SubsetWitness, v) -> MultiplyLocated:
        self._check_flatten(outer, inner, v)
        value = self._check_nested(inner, v._value)
        return self._record_mlv(_located(outer.sub, True, value))

    def others_forget(self, t: SubsetWitness, v) -> MultiplyLocated:
        self._check_others_forget(t, v)
        return self._record_mlv(_located(t.sub, True, v._value))


def run_centralized(
    c, census: Census, args: Any = None, seed: int = 0, inputs: dict | None = None
) -> RunReport:
    """Run every endpoint's view of the choreography in one process.

    Failures are recorded per endpoint in the report rather than raised, so a
    failing run can still be inspected.
    """
    proc = run_proc(c, census)
    state = _CentralState(census, seed, inputs or {})
    bundle = CentralBundle(state, census)
    report = RunReport("centralized", seed, census.names, state.logs, state.messages)
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
