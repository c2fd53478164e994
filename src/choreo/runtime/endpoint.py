"""Endpoint projection as dependency injection.

`project_and_run` builds an operator bundle whose implementations act for one
location over a transport, then simply calls the choreography with it: values
this endpoint does not own surface as absent, sends happen where this endpoint
is the sender, receives where it is a recipient, and enclaves it is outside of
are skipped entirely.
"""

from collections import deque
from typing import Any

from ..errors import WitnessMismatchError
from ..located import Faceted, MultiplyLocated, Quire, _located
from ..locations import Census, MembershipWitness, SubsetWitness
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
        self.rng = rng
        self.inputs = inputs
        self.log = log
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
        self.log.events.append(("send", to, len(data)))
        self.transport.send(to, data)

    def recv(self, frm: str) -> bytes:
        data = self.transport.recv(frm)
        self.tick()
        self.log.events.append(("recv", frm, len(data)))
        return data


class EndpointBundle(OperatorBundle):
    def __init__(self, state: EndpointState, census: Census):
        super().__init__(census)
        self._state = state

    def _child(self, census: Census) -> "EndpointBundle":
        return EndpointBundle(self._state, census)

    # -- recording ----------------------------------------------------------

    def _record_mlv(self, mlv: MultiplyLocated) -> MultiplyLocated:
        sig = self._census.names
        seq = self._state.value_counters.get(sig, 0)
        self._state.value_counters[sig] = seq + 1
        if mlv._present:
            rec = ValueRecord(sig, seq, "mlv", mlv.owners.names, "present",
                              try_encode(mlv._value))
        else:
            rec = ValueRecord(sig, seq, "mlv", mlv.owners.names, "absent", None)
        self._state.log.values.append(rec)
        return mlv

    def _record_faceted(self, f: Faceted) -> Faceted:
        sig = self._census.names
        seq = self._state.value_counters.get(sig, 0)
        self._state.value_counters[sig] = seq + 1
        me = self._state.self_name
        if me in f._facets:
            rec = ValueRecord(sig, seq, "faceted", f.owners.names, "facet",
                              try_encode(f._facets[me]))
        else:
            rec = ValueRecord(sig, seq, "faceted", f.owners.names, "nofacet", None)
        self._state.log.values.append(rec)
        return f

    def _record_branch(self, value: Any) -> None:
        sig = self._census.names
        index = self._state.branch_counters.get(sig, 0)
        self._state.branch_counters[sig] = index + 1
        self._state.log.branches.append(BranchRecord(sig, index, canonical_bytes(value)))

    # -- core operators -------------------------------------------------------

    def locally(self, w: MembershipWitness, body) -> MultiplyLocated:
        self._require_member(w)
        owners = Census((w.location,))
        if w.location.name == self._state.self_name:
            un = Unwrapper(w.location, self._state.rng, self._state.inputs, None)
            mlv = _located(owners, True, body(un))
        else:
            mlv = _located(owners, False, None)
        return self._record_mlv(mlv)

    def multicast(self, s: MembershipWitness, r: SubsetWitness, v) -> MultiplyLocated:
        sender = self._check_multicast(s, r, v)
        me = self._state.self_name
        if me == sender:
            data = encode(v._value)
            for q in r.sub.names:
                if q != me:
                    self._state.send(q, data)
        elif me in r.sub:
            data = self._state.recv(sender)
        if me in r.sub:
            mlv = _located(r.sub, True, decode(data))
        else:
            mlv = _located(r.sub, False, None)
        return self._record_mlv(mlv)

    def naked(self, v) -> Any:
        self._check_naked(v)
        self._record_branch(v._value)
        return v._value

    def enclave(self, s: SubsetWitness, c) -> MultiplyLocated:
        proc = self._check_enclave(s, c)
        sig = s.sub.names
        if self._state.self_name in s.sub:
            self._state.log.events.append(("enter", sig))
            ret = proc(self._child(s.sub))
            self._state.log.events.append(("exit", sig))
            mlv = _located(s.sub, True, ret)
        else:
            mlv = _located(s.sub, False, None)
        return self._record_mlv(mlv)

    def replicated(self, body) -> MultiplyLocated:
        un = Unwrapper(None, None, None, self._census)
        value = body(un)
        return self._record_mlv(_located(self._census, True, value))

    def fanout(self, qs: SubsetWitness, per) -> Faceted:
        payloads = self._fanout_payloads(qs, per)
        me = self._state.self_name
        own = {me: payloads[me]} if me in payloads else {}
        return self._record_faceted(Faceted(qs.sub, own))

    def fanin(self, qs: SubsetWitness, rs: SubsetWitness, per) -> MultiplyLocated:
        entries = self._fanin_payloads(qs, rs, per)
        if self._state.self_name in rs.sub:
            mlv = _located(rs.sub, True, Quire(qs.sub, entries))
        else:
            mlv = _located(rs.sub, False, None)
        return self._record_mlv(mlv)

    def flatten(self, outer: SubsetWitness, inner: SubsetWitness, v) -> MultiplyLocated:
        self._check_flatten(outer, inner, v)
        if self._state.self_name in outer.sub:
            mlv = _located(outer.sub, True, self._check_nested(inner, v._value))
        else:
            mlv = _located(outer.sub, False, None)
        return self._record_mlv(mlv)

    def others_forget(self, t: SubsetWitness, v) -> MultiplyLocated:
        self._check_others_forget(t, v)
        present = self._state.self_name in t.sub  # then v._value is present too
        return self._record_mlv(_located(t.sub, present, v._value))


def run_endpoint(
    proc, census: Census, name: str, transport: Transport, args: Any, seed: int,
    inputs: dict | None, log: EndpointLog,
) -> EndpointState:
    """Run `proc` as endpoint `name` and store its view of the result in `log`."""
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
) -> tuple[Any, RunReport]:
    """Run the choreography as one endpoint over a real transport.

    Returns this endpoint's view of the result and a single-endpoint report
    fragment (its sends, receives, branch log).  Protocol and transport errors
    propagate to the caller.
    """
    if self_name not in census:
        raise WitnessMismatchError(f"{self_name!r} is not in census {census.names}")
    proc = run_proc(c, census)
    log = EndpointLog(self_name)
    state = run_endpoint(proc, census, self_name, transport, args, seed, inputs, log)
    report = RunReport("endpoint", seed, census.names, {self_name: log}, state.sent)
    return log.result, report
