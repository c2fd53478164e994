"""Endpoint projection as dependency injection.

`project_and_run` builds an operator bundle whose implementations act for one
location over a transport, then simply calls the choreography with it.  Each
operator computes a payload only where this endpoint owns the result and
stores the `ABSENT` placeholder elsewhere; sends happen where this endpoint
is the sender, receives where it is a recipient, and enclaves it is outside
of are skipped entirely.

The value audit is opt-in.  With `audit=True` an endpoint also records one
`ValueRecord` per located or faceted value it constructs.  A record is
`present` exactly where the endpoint holds a payload other than `ABSENT`
(for a faceted value, its own facet): it is read from what the endpoint
holds, not from the owner set, so that `check_value_agreement` can find the
two out of step, and it flags a record made under a census the endpoint is
not in.  That check, and through it `conformance.compare_runs`, read the
records, so the runs compared with the oracle turn the audit on.  By default
only the branch log and the message log are kept, which is all that
`RunReport.serialize()` reads.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..errors import WitnessMismatchError
from ..located import ABSENT, Faceted, MultiplyLocated, Quire
from ..locations import Census, Location, MembershipWitness, SubsetWitness
from ..ops import OperatorBundle, Unwrapper, run_proc
from ..portable import decode, encode
from ..seeding import location_rng
from ..transport import MessageRecord, Transport
from .report import BranchRecord, EndpointLog, RunReport, ValueRecord
from .views import canonical_bytes, try_encode, view


class EndpointState:
    """Everything one endpoint's bundle closes over besides the census."""

    def __init__(self, name: str, transport: Transport, rng, inputs, log: EndpointLog):
        self.self_name = name
        self.transport = transport
        self.unwrapper = Unwrapper(Location(name), rng, inputs, None)
        self.log = log
        self.audit = log.audited
        self.clock = 0
        self.value_counters: dict[tuple, int] = {}
        self.branch_counters: dict[tuple, int] = {}
        self.seqs: dict[str, int] = {}
        self.sent: list[MessageRecord] = []

    def tick(self) -> int:
        t = self.clock
        self.clock += 1
        return t

    def send(self, to: str, data: bytes) -> None:
        seq = self.seqs.get(to, 0)
        self.seqs[to] = seq + 1
        self.sent.append(
            MessageRecord(self.self_name, to, len(data), seq, t_send=self.tick())
        )
        self.transport.send(to, data)

    def recv(self, frm: str) -> bytes:
        data = self.transport.recv(frm)
        self.tick()
        return data


class EndpointBundle(OperatorBundle):
    def __init__(self, state: EndpointState, census: Census):
        super().__init__(census)
        self._state = state

    def _child(self, census: Census) -> "EndpointBundle":
        return EndpointBundle(self._state, census)

    # -- recording ----------------------------------------------------------

    def _record(self, v: MultiplyLocated | Faceted):
        """Audit `v`, present where this endpoint holds its payload."""
        if not self._state.audit:
            return v
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
    # Each value starts as ABSENT and is computed only where this endpoint is
    # one of its owners.

    def locally(self, w: MembershipWitness, body) -> MultiplyLocated:
        self._require_member(w)
        name = w.location.name
        value = body(self._state.unwrapper) if name == self._state.self_name else ABSENT
        return self._record(MultiplyLocated(w.alone, value))

    def multicast(self, s: MembershipWitness, r: SubsetWitness, v) -> MultiplyLocated:
        sender = self._check_multicast(s, r, v)
        me = self._state.self_name
        value = ABSENT
        if me == sender:
            data = encode(v._value)
            for q in r.sub.names:
                if q != me:
                    self._state.send(q, data)
        if me in r.sub:
            value = decode(data if me == sender else self._state.recv(sender))
        return self._record(MultiplyLocated(r.sub, value))

    def naked(self, v) -> Any:
        self._check_naked(v)
        self._record_branch(v._value)
        return v._value

    def enclave(self, s: SubsetWitness, c) -> MultiplyLocated:
        proc = self._check_enclave(s, c)
        value = ABSENT
        if self._state.self_name in s.sub:
            value = proc(self._child(s.sub))
        return self._record(MultiplyLocated(s.sub, value))

    def replicated(self, body) -> MultiplyLocated:
        value = body(Unwrapper(None, None, None, self._census))
        return self._record(MultiplyLocated(self._census, value))

    def fanout(self, qs: SubsetWitness, per) -> Faceted:
        payloads = self._loop_payloads(qs, per)
        me = self._state.self_name
        own = {me: payloads[me]} if me in qs.sub else {}
        return self._record(Faceted(qs.sub, own))

    def fanin(self, qs: SubsetWitness, rs: SubsetWitness, per) -> MultiplyLocated:
        entries = self._loop_payloads(qs, per, rs)
        value = Quire(qs.sub, entries) if self._state.self_name in rs.sub else ABSENT
        return self._record(MultiplyLocated(rs.sub, value))

    def flatten(self, outer: SubsetWitness, inner: SubsetWitness, v) -> MultiplyLocated:
        self._check_flatten(outer, inner, v)
        value = ABSENT
        if self._state.self_name in outer.sub:
            value = self._check_nested(inner, v._value)
        return self._record(MultiplyLocated(outer.sub, value))

    def others_forget(self, t: SubsetWitness, v) -> MultiplyLocated:
        self._check_others_forget(t, v)
        value = v._value if self._state.self_name in t.sub else ABSENT
        return self._record(MultiplyLocated(t.sub, value))


def run_endpoint(
    proc, census: Census, name: str, transport: Transport, args: Any, seed: int,
    inputs: dict | None, log: EndpointLog, audit: bool = False,
) -> EndpointState:
    """Run `proc` as endpoint `name` and store its view of the result in `log`,
    with the value audit too when `audit` is set."""
    log.audited = audit
    stream = deque((inputs or {}).get(name, []))
    state = EndpointState(name, transport, location_rng(seed, name), stream, log)
    log.result = view(proc(EndpointBundle(state, census), args), name)
    return state


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
    Protocol and transport errors propagate to the caller.
    """
    if self_name not in census:
        raise WitnessMismatchError(f"{self_name!r} is not in census {census.names}")
    proc = run_proc(c, census)
    log = EndpointLog(self_name)
    state = run_endpoint(proc, census, self_name, transport, args, seed, inputs, log, audit)
    report = RunReport(census.names, {self_name: log}, state.sent)
    return log.result, report
