"""Endpoint projection as dependency injection.

`project_and_run` builds an operator bundle whose implementations act for one
location over a transport, then simply calls the choreography with it.  Each
operator computes a payload only where this endpoint owns the result;
elsewhere it returns the one shared `MultiplyLocated(owners, ABSENT)` of that
owner set (`_ABSENT_AT[owners]`), which is safe because a `MultiplyLocated`
is never mutated after construction.  Sends happen where this endpoint is the
sender, receives where it is a recipient, and enclaves it is outside of are
skipped entirely.  A sender that is also a recipient keeps its own value when
it is `plain` and decodes the bytes it sent otherwise, as the oracle does.

The value audit is opt-in.  With `audit=True` an endpoint also records one
`ValueRecord` per located or faceted value an operator returns, a shared
absent one included.  A record is `present` exactly where the endpoint holds
a payload other than `ABSENT` (for a faceted value, its own facet): it is
read from what the endpoint holds, not from the owner set, so that
`check_value_agreement` can find the two out of step, and it flags a record
made under a census the endpoint is not in.  That check, and through it
`conformance.compare_runs`, read the records, so the runs compared with the
oracle turn the audit on.  By default only the branch log and the message log
are kept, which is all that `RunReport.serialize()` reads.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..errors import WitnessMismatchError
from ..located import _ABSENT_AT, ABSENT, Faceted, MultiplyLocated, Quire
from ..locations import Census, MembershipWitness, SubsetWitness
from ..ops import CensusUnwrapper, OperatorBundle, Unwrapper, run_proc
from ..portable import decode, encode, plain
from ..seeding import location_rng
from ..transport import MessageRecord, Transport
from .report import BranchRecord, EndpointLog, RunReport, ValueRecord
from .views import canonical_bytes, try_encode, view


class EndpointState:
    """Everything one endpoint's bundle closes over besides the census."""

    def __init__(self, name: str, transport: Transport, rng, inputs, log: EndpointLog):
        self.self_name = name
        self.transport = transport
        self.unwrapper = Unwrapper(name, rng, inputs)
        self.log = log
        self.audit = log.audited
        self.clock = 0
        self.value_counters: dict[tuple, int] = {}
        self.branch_counters: dict[tuple, int] = {}
        self.seqs: dict[str, int] = {}
        self.sent: list[MessageRecord] = []

    def send(self, to: str, data: bytes) -> None:
        seq = self.seqs.get(to, 0)
        self.seqs[to] = seq + 1
        self.sent.append(
            MessageRecord(self.self_name, to, len(data), seq, t_send=self.clock)
        )
        self.clock += 1
        self.transport.send(to, data)

    def recv(self, frm: str) -> bytes:
        data = self.transport.recv(frm)
        self.clock += 1
        return data


class EndpointBundle(OperatorBundle):
    # -- recording ----------------------------------------------------------

    def _record(self, v: MultiplyLocated | Faceted):
        """Audit `v`, present where this endpoint holds its payload; the
        operators call it only when the run is audited."""
        sig = self._census.names
        seq = self._state.value_counters.get(sig, 0)
        self._state.value_counters[sig] = seq + 1
        if isinstance(v, Faceted):
            kind, present, payload = "faceted", self._state.self_name in v._facets, None
        else:
            kind, present = "mlv", v._value is not ABSENT
            payload = try_encode(v._value) if present else None
        state = "present" if present else "absent"
        self._state.log.values.append(ValueRecord(sig, seq, kind, v.owners.names, state, payload))
        return v

    def _record_branch(self, value: Any) -> None:
        sig = self._census.names
        index = self._state.branch_counters.get(sig, 0)
        self._state.branch_counters[sig] = index + 1
        self._state.log.branches.append(BranchRecord(sig, index, canonical_bytes(value)))

    # -- core operators -------------------------------------------------------
    # A value is computed only where this endpoint is one of its owners; a
    # non-owner gets its owner set's shared absent value.  Census tests read
    # `_positions`/`_names`, as the checks in ops.py do.

    def locally(self, w: MembershipWitness, body) -> MultiplyLocated:
        self._require_member(w)
        state = self._state
        if w.location == state.self_name:
            v = MultiplyLocated(w.alone, body(state.unwrapper))
        else:
            v = _ABSENT_AT[w.alone]
        return self._record(v) if state.audit else v

    def multicast(self, s: MembershipWitness, r: SubsetWitness, v) -> MultiplyLocated:
        sender = self._check_multicast(s, r, v)
        state = self._state
        me = state.self_name
        if me == sender:
            data = encode(v._value)
            for q in r.sub._names:
                if q != me:
                    state.send(q, data)
        if me in r.sub._positions:
            if me != sender:
                value = decode(state.recv(sender))
            elif plain(v._value):
                value = v._value
            else:
                value = decode(data)
            v = MultiplyLocated(r.sub, value)
        else:
            v = _ABSENT_AT[r.sub]
        return self._record(v) if state.audit else v

    def naked(self, v) -> Any:
        self._check_naked(v)
        self._record_branch(v._value)
        return v._value

    def enclave(self, s: SubsetWitness, c) -> MultiplyLocated:
        proc = self._check_enclave(s, c)
        v = (MultiplyLocated(s.sub, proc(self._child(s.sub)))
             if self._state.self_name in s.sub._positions else _ABSENT_AT[s.sub])
        return self._record(v) if self._state.audit else v

    def replicated(self, body) -> MultiplyLocated:
        v = MultiplyLocated(self._census, body(CensusUnwrapper(self._census)))
        return self._record(v) if self._state.audit else v

    def fanout(self, qs: SubsetWitness, per) -> Faceted:
        payloads = self._loop_payloads(qs, per)
        me = self._state.self_name
        v = Faceted(qs.sub, {me: payloads[me]} if me in qs.sub._positions else {})
        return self._record(v) if self._state.audit else v

    def fanin(self, qs: SubsetWitness, rs: SubsetWitness, per) -> MultiplyLocated:
        entries = self._loop_payloads(qs, per, rs)
        v = (MultiplyLocated(rs.sub, Quire(qs.sub, entries))
             if self._state.self_name in rs.sub._positions else _ABSENT_AT[rs.sub])
        return self._record(v) if self._state.audit else v

    def flatten(self, outer: SubsetWitness, inner: SubsetWitness, v) -> MultiplyLocated:
        self._check_flatten(outer, inner, v)
        v = (MultiplyLocated(outer.sub, self._check_nested(inner, v._value))
             if self._state.self_name in outer.sub._positions else _ABSENT_AT[outer.sub])
        return self._record(v) if self._state.audit else v

    def others_forget(self, t: SubsetWitness, v) -> MultiplyLocated:
        self._check_others_forget(t, v)
        v = (MultiplyLocated(t.sub, v._value)
             if self._state.self_name in t.sub._positions else _ABSENT_AT[t.sub])
        return self._record(v) if self._state.audit else v


def run_endpoint(
    proc, census: Census, name: str, transport: Transport, args: Any, seed: int,
    inputs: dict | None, log: EndpointLog, audit: bool = False,
) -> list[MessageRecord]:
    """Run `proc` as endpoint `name` and store in `log` its view of the result,
    or the exception it ended with, and with `audit` its value audit too.
    Returns its sends, a failed endpoint's included."""
    log.audited = audit
    stream = deque((inputs or {}).get(name, []))
    state = EndpointState(name, transport, location_rng(seed, name), stream, log)
    try:
        log.result = view(proc(EndpointBundle(state, census), args), name)
    except BaseException as exc:  # the outcome is data; project_and_run re-raises it
        log.error = exc
    return state.sent


def project_and_run(
    c,
    census: Census,
    self_name: str,
    transport: Transport,
    args: Any = None,
    seed: int = 0,
    inputs: dict | None = None,
    audit: bool = False,
) -> tuple[Any, RunReport]:
    """Run the choreography as one endpoint over a real transport.

    Returns this endpoint's view of the result and a single-endpoint report
    fragment (its sends, branch log, and with `audit` its value audit).
    Raises the exception the endpoint ended with, if any.
    """
    if self_name not in census:
        raise WitnessMismatchError(f"{self_name!r} is not in census {census.names}")
    proc, log = run_proc(c, census), EndpointLog(self_name)
    sent = run_endpoint(proc, census, self_name, transport, args, seed, inputs, log, audit)
    if log.error is not None:
        raise log.error
    return log.result, RunReport(census.names, {self_name: log}, sent)
