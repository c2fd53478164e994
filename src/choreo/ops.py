"""The choreographic operator bundle.

A choreography is an ordinary function over an *operator bundle*: the bundle
supplies every effectful operation (local computation, communication, census
narrowing, loops), and running the same choreography against different bundle
implementations is what projects it to an endpoint, interprets it centrally,
or drives it over a simulated network.  The base class below states the global
contract of every operator once: its checks on witnesses, owners, empty sets
and loop shapes, which every interpreter calls before its effects, so a broken
contract raises the same error under each.  The runtime provides the concrete
bundles, which supply only the effects.

A location is its name, a `str`: a witness's `location`, an unwrapper's
`location` and the first argument of a `parallel` body are that name.

Global semantics, in one place:

- locally(w, body)            body runs only at w's location; result owned by it.
- multicast(s, r, v)          s sends the encoded payload to every recipient
                              except itself; the result is owned exactly by the
                              recipients (prior owners are not auto-included).
- broadcast(s, v)             multicast to the whole census, then naked.
- naked(v)                    returns the bare payload everywhere, provided the
                              whole current census owns v; computation on the
                              result is actively replicated.
- enclave(s, c)               members of the subset run c with the census
                              narrowed to it; everyone else skips the whole
                              sub-choreography (no messages, no computation).
- replicated(body)            every census member computes the same pure body
                              on multiply-owned data; results must agree.  An
                              endpoint trusts the body to be pure and runs it
                              once; only the centralized oracle runs it once
                              per census member and compares the results.
- fanout / fanin              sequential loops over a location subset, one
                              sub-choreography per looped location, aggregating
                              a Faceted (at the looped set) or a Quire (at the
                              recipients).
- parallel(qs, body)          fanout of locally: body(loc, un) runs at each loc.
- scatter(s, rs, v)           s holds a quire keyed by the recipients and sends
                              each its own leaf.
- gather(qs, rs, f)           each sender multicasts its facet to the
                              recipients, who assemble a quire in qs order.
- flatten / others_forget     un-nest a located-located value / shrink an owner
                              set; never communicate.

A body may change only state that belongs to its own location.  The simulator
and `run_over_tcp` give each endpoint its own deep copy of `args`, as separate
processes would have, and skip the copy when `args` is built only from
immutable values; the oracle keeps one `args`, so a body that changes it
disagrees with the oracle.  A body must not change a payload that other
locations also own either: the oracle hands every recipient of a multicast one
shared payload, so a change made at one reaches the others there and nowhere
else.  State reached through a closure or a module global is not isolated.
"""

from __future__ import annotations

import copy
import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass
from types import FunctionType
from typing import Any, Callable, Iterable

from .errors import (
    CensusNotOwnedError,
    ContractError,
    EmptyCensusError,
    InputExhaustedError,
    NotAnOwnerError,
    UnwrapAbsentError,
    WitnessMismatchError,
)
from .located import Faceted, MultiplyLocated, Quire
from .locations import (
    Census,
    MembershipWitness,
    SubsetWitness,
    compose,
    member,
    member_witnesses,
    subset,
)


@dataclass
class Choreography:
    """A global program: a procedure over a bundle plus arguments, with an
    optionally declared census that the runtime validates before running."""

    proc: Callable[["OperatorBundle", Any], Any]
    census: Census | None = None


class Unwrapper:
    """Read capability handed to `locally` and `parallel` bodies at one
    location.

    Calling it on a multiply-located or faceted value returns the payload as
    seen by `location`; reading data the location does not own raises
    UnwrapAbsentError, and reading anything else raises ContractError.  `rng`
    is the location's seeded randomness and `next_input()` pops its input
    stream.  `replicated` bodies get a `CensusUnwrapper` instead.
    """

    __slots__ = ("location", "rng", "_inputs")

    def __init__(self, location: str, rng, inputs):
        self.location = location
        self.rng = rng
        self._inputs = inputs

    def next_input(self) -> Any:
        if not self._inputs:
            raise InputExhaustedError(f"input stream for {self.location!r} is empty")
        return self._inputs.popleft()

    def __call__(self, value: Any) -> Any:
        # An exact MultiplyLocated or Faceted skips the isinstance tests.
        t = type(value)
        if t is not MultiplyLocated and t is not Faceted:
            t = _located_kind(value)
        name = self.location
        if name in value._owners._positions:
            return value._value if t is MultiplyLocated else value._facets[name]
        raise UnwrapAbsentError(
            f"{name!r} does not own the value (owners: {value.owners.names})"
        )


class CensusUnwrapper:
    """Read capability handed to `replicated` bodies, scoped to the whole
    census: it reads only a multiply-located value every member owns, and it
    has no location, randomness or input stream (those would break the
    agreement contract)."""

    __slots__ = ("_census",)
    location = None

    def __init__(self, census: Census):
        self._census = census

    @property
    def rng(self):
        raise ContractError("replicated bodies have no local randomness")

    def next_input(self) -> Any:
        raise ContractError("replicated bodies have no input stream")

    def __call__(self, value: Any) -> Any:
        if type(value) is not MultiplyLocated and _located_kind(value) is Faceted:
            raise UnwrapAbsentError("faceted values have no census-agreed reading")
        if value._owners is not self._census:
            owners = value._owners._positions
            missing = [n for n in self._census._names if n not in owners]
            if missing:
                raise UnwrapAbsentError(f"census member {missing[0]!r} does not own the value")
        return value._value


def _located_kind(value: Any) -> type:
    """MultiplyLocated or Faceted, whichever `value` is an instance of;
    ContractError for anything else."""
    if isinstance(value, MultiplyLocated):
        return MultiplyLocated
    if isinstance(value, Faceted):
        return Faceted
    raise ContractError(f"cannot unwrap {type(value).__name__}")


def _check_declared(c: Choreography, census: Census, verb: str) -> None:
    if c.census is not None and c.census is not census:
        raise WitnessMismatchError(
            f"choreography declared census {c.census.names}, {verb} {census.names}"
        )


def _immutable(value: Any) -> bool:
    """Built only from None, bool, int, str, tuples, frozensets and frozen
    dataclasses, so no body can change it."""
    if type(value) in (tuple, frozenset):
        return all(map(_immutable, value))
    if getattr(getattr(type(value), "__dataclass_params__", None), "frozen", False):
        return all(_immutable(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value is None or type(value) in (bool, int, str)


def run_proc(
    c: Any, census: Census, args: Any = None, inputs: dict | None = None
) -> Callable[["OperatorBundle", Any], Any]:
    """The procedure a run under `census` calls: a Choreography's, once the
    census it declares (if any) is checked, or `c` itself.  Before any
    endpoint starts it raises EmptyCensusError for an empty run census, and
    ContractError for an input stream of a location outside the census or
    for `args` that could not be deep-copied for each endpoint."""
    if not census:
        raise EmptyCensusError("a run census must contain at least one location")
    strays = [name for name in inputs or () if name not in census._positions]
    if strays:
        raise ContractError(f"input stream for {strays[0]!r}, not in census {census.names}")
    if not _immutable(args):  # a trial copy, since the oracle never copies `args`
        try:
            copy.deepcopy(args)
        except (TypeError, copy.Error) as exc:
            raise ContractError(f"args of type {type(args).__name__} cannot be copied: {exc}")
    if isinstance(c, Choreography):
        _check_declared(c, census, "got")
        return c.proc
    return c


def as_callable(c: Any, expected_census: Census) -> Callable[["OperatorBundle"], Any]:
    """Normalize a sub-choreography argument to a callable over the bundle."""
    if isinstance(c, Choreography):
        _check_declared(c, expected_census, "running under")
        return lambda b: c.proc(b, None)
    if callable(c):
        return c
    raise ContractError("expected a Choreography or a callable over the bundle")


class OperatorBundle(ABC):
    """Injected operator set, closed over a census and an interpreter's
    state; an enclave's bundle shares the state under the narrowed census."""

    def __init__(self, state, census: Census):
        self._state = state
        self._census = census

    def _child(self, census: Census) -> "OperatorBundle":
        return type(self)(self._state, census)

    @property
    def census(self) -> Census:
        return self._census

    # -- witness helpers -------------------------------------------------

    def member(self, name: str) -> MembershipWitness:
        return member(name, self._census)

    def subset(self, names: Iterable[str] | Census) -> SubsetWitness:
        return subset(names if isinstance(names, Census) else Census(names), self._census)

    def everyone(self) -> SubsetWitness:
        return subset(self._census, self._census)

    # The hot checks read `_positions` and `_names`: `in` and `len` on a
    # Census are Python-level calls.

    def _require_member(self, w: MembershipWitness) -> None:
        if not isinstance(w, MembershipWitness) or w.census is not self._census:
            raise WitnessMismatchError(
                f"membership witness is not for the current census {self._census.names}"
            )

    def _require_subset(self, s: SubsetWitness) -> None:
        if not isinstance(s, SubsetWitness) or s.sup is not self._census:
            raise WitnessMismatchError(
                f"subset witness is not into the current census {self._census.names}"
            )

    # -- the operator contract: checks each bundle's operators call first --
    # Each bundle still defines all nine operators in its own class, not as
    # inherited template methods: tracing (bench/tracer.py) wraps the ones it
    # finds in each bundle class's own __dict__.

    def _check_multicast(self, s: MembershipWitness, r: SubsetWitness, v) -> str:
        """Returns the sender's name."""
        self._require_member(s)
        self._require_subset(r)
        if not isinstance(v, MultiplyLocated):
            raise ContractError("multicast takes a multiply-located value")
        sender = s.location
        if sender not in v._owners._positions:
            raise NotAnOwnerError(f"{sender!r} does not own the value being sent")
        if not r.sub._names:
            raise EmptyCensusError("multicast needs at least one recipient")
        return sender

    def _check_naked(self, v) -> None:
        if not isinstance(v, MultiplyLocated):
            raise ContractError("naked takes a multiply-located value")
        if v._owners is self._census:
            return
        missing = [n for n in self._census.names if n not in v.owners]
        if missing:
            raise CensusNotOwnedError(
                f"census member {missing[0]!r} does not own the value"
            )

    def _check_enclave(self, s: SubsetWitness, c) -> Callable[["OperatorBundle"], Any]:
        """Returns the sub-choreography as a callable over the child bundle."""
        self._require_subset(s)
        if not s.sub._names:
            raise EmptyCensusError("an enclave census may not be empty")
        return c if type(c) is FunctionType else as_callable(c, s.sub)

    def _loop_payloads(self, qs: SubsetWitness, per, rs: SubsetWitness | None = None):
        """Runs a fanout's iterations, or with recipients `rs` a fanin's, in
        order; returns their payloads by location.  Each iteration must yield a
        value owned exactly by its own location (fanout) or by `rs` (fanin)."""
        self._require_subset(qs)
        if rs is not None:
            self._require_subset(rs)
            if not rs.sub._names:
                raise EmptyCensusError("fanin needs at least one recipient")
        payloads = {}
        for w in member_witnesses(qs.sub):
            c = per(w)
            ret = c(self) if type(c) is FunctionType else as_callable(c, self._census)(self)
            owners = w.alone if rs is None else rs.sub
            if not isinstance(ret, MultiplyLocated) or ret._owners is not owners:
                op = "fanout" if rs is None else "fanin"
                raise ContractError(
                    f"{op} iteration must yield a value located exactly at {owners.names}"
                )
            payloads[w.location] = ret._value
        return payloads

    def _check_flatten(self, outer: SubsetWitness, inner: SubsetWitness, v) -> None:
        if not isinstance(v, MultiplyLocated):
            raise ContractError("flatten takes a multiply-located value")
        if not (isinstance(outer, SubsetWitness) and isinstance(inner, SubsetWitness)):
            raise WitnessMismatchError("flatten takes subset witnesses")
        if outer.sup is not v._owners:
            raise WitnessMismatchError("outer witness must target the value's owners")
        if outer.sub is not inner.sub:
            raise WitnessMismatchError("flatten witnesses must share the narrowed set")
        if not outer.sub._names:
            raise EmptyCensusError("cannot flatten to an empty owner set")

    def _check_nested(self, inner: SubsetWitness, payload) -> Any:
        """Checks flatten's payload where it is present; returns the inner one."""
        if not isinstance(payload, MultiplyLocated):
            raise ContractError("flatten needs a nested located value")
        if inner.sup is not payload._owners:
            raise WitnessMismatchError("inner witness must target the nested owners")
        return payload._value

    def _check_others_forget(self, t: SubsetWitness, v) -> None:
        if not isinstance(v, MultiplyLocated):
            raise ContractError("others_forget takes a multiply-located value")
        if not isinstance(t, SubsetWitness):
            raise WitnessMismatchError("others_forget takes a subset witness")
        if t.sup is not v._owners:
            raise WitnessMismatchError("witness must target the value's owners")
        if not t.sub._names:
            raise EmptyCensusError("cannot shrink ownership to the empty set")

    # -- core operators (mode-specific) ----------------------------------

    @abstractmethod
    def locally(self, w: MembershipWitness, body: Callable[[Unwrapper], Any]) -> MultiplyLocated:
        ...

    @abstractmethod
    def multicast(
        self, s: MembershipWitness, r: SubsetWitness, v: MultiplyLocated
    ) -> MultiplyLocated:
        ...

    @abstractmethod
    def naked(self, v: MultiplyLocated) -> Any:
        ...

    @abstractmethod
    def enclave(self, s: SubsetWitness, c: Any) -> MultiplyLocated:
        ...

    @abstractmethod
    def replicated(self, body: Callable[[CensusUnwrapper], Any]) -> MultiplyLocated:
        ...

    @abstractmethod
    def fanout(self, qs: SubsetWitness, per) -> Faceted:
        ...

    @abstractmethod
    def fanin(self, qs: SubsetWitness, rs: SubsetWitness, per) -> MultiplyLocated:
        ...

    @abstractmethod
    def flatten(
        self, outer: SubsetWitness, inner: SubsetWitness, v: MultiplyLocated
    ) -> MultiplyLocated:
        ...

    @abstractmethod
    def others_forget(self, t: SubsetWitness, v: MultiplyLocated) -> MultiplyLocated:
        ...

    # -- derived operators ------------------------------------------------

    def broadcast(self, s: MembershipWitness, v: MultiplyLocated) -> Any:
        return self.naked(self.multicast(s, self.everyone(), v))

    def parallel(self, qs: SubsetWitness, body) -> Faceted:
        def per(q_in_qs: MembershipWitness):
            q = compose(q_in_qs, qs)
            return lambda b: b.locally(q, lambda un: body(q.location, un))

        return self.fanout(qs, per)

    def scatter(
        self, s: MembershipWitness, rs: SubsetWitness, v: MultiplyLocated
    ) -> Faceted:
        self._require_member(s)
        self._require_subset(rs)
        if not isinstance(v, MultiplyLocated):
            raise ContractError("scatter takes a multiply-located quire")
        if s.location not in v.owners:
            raise NotAnOwnerError(f"{s.location!r} does not own the quire being scattered")
        keys = rs.sub

        def leaf_of(quire: Any, name: str) -> Any:
            if not isinstance(quire, Quire) or quire.keys is not keys:
                raise ContractError("scattered payload must be a quire keyed by the recipients")
            return quire[name]

        def per(q_in_rs: MembershipWitness):
            q = compose(q_in_rs, rs)
            qname = q.location

            def chor(b: "OperatorBundle"):
                leaf = b.locally(s, lambda un: leaf_of(un(v), qname))
                return b.multicast(s, b.subset([qname]), leaf)

            return chor

        return self.fanout(rs, per)

    def gather(
        self, qs: SubsetWitness, rs: SubsetWitness, f: Faceted
    ) -> MultiplyLocated:
        self._require_subset(qs)
        self._require_subset(rs)
        if not isinstance(f, Faceted) or f.owners is not qs.sub:
            raise ContractError("gather takes a faceted value owned exactly by the senders")

        def per(q_in_qs: MembershipWitness):
            q = compose(q_in_qs, qs)

            def chor(b: "OperatorBundle"):
                own = b.locally(q, lambda un: un(f))
                return b.multicast(q, rs, own)

            return chor

        return self.fanin(qs, rs, per)
