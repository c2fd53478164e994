"""Locations, censuses, and runtime-checked membership/subset witnesses.

A location is its name, a non-empty `str`.  A census is an ordered,
duplicate-free set of location names.  Order matters: the loop operators
(fanout, fanin, gather) iterate in census order, which is what makes whole
runs deterministic for a fixed seed.

Witnesses are fail-fast proofs: `member` and `subset` are the only
constructors, and they validate the claimed relation when the witness is
built, so any witness that exists is sound.

There is one `Census` per name tuple: `Census(names)` and `census_of` hand
out the same object for the same names, so equality and hashing are identity,
and a copy or a pickle of a census gives back that census.  A witness is
validated once, the first time `member` or `subset` is asked for it, then kept
frozen and handed out again; `compose` and `member_witnesses` (the witnesses a
loop hands its iterations) return those same witnesses.  So narrowing to or
looping over a census a run has seen before builds no census or witness.  The
tables hold only immutable values and grow with the distinct censuses a
program names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import (
    DuplicateLocationError,
    EmptyCensusError,
    NotAMemberError,
    NotASubsetError,
    WitnessMismatchError,
)


class Census:
    """An ordered, duplicate-free set of location names (non-empty `str`s),
    one per name tuple.

    `Census(names)` validates the names the first time it sees them and
    returns the same census for them ever after: equality and hash are
    identity, and copies and pickles give back the same census.  May be empty
    only when used as a degenerate loop subset (zero backups, zero senders);
    run censuses, enclave censuses, owner sets, and recipient sets must be
    non-empty and the operators enforce that.
    """

    __slots__ = ("_positions", "_names")

    def __new__(cls, names: Iterable[str]) -> Census:
        key = tuple(names)
        census = _CENSUSES.get(key)
        if census is None:
            positions: dict[str, int] = {}
            for i, name in enumerate(key):
                if not isinstance(name, str):
                    raise TypeError(f"location name must be a str, not {type(name).__name__}")
                if not name:
                    raise ValueError("location name must be non-empty")
                if name in positions:
                    raise DuplicateLocationError(f"duplicate location {name!r}")
                positions[name] = i
            census = object.__new__(cls)
            census._positions = positions
            census._names = key
            census = _CENSUSES.setdefault(key, census)
        return census

    def __reduce__(self):
        return Census, (self._names,)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __repr__(self) -> str:
        return f"Census{self.names!r}"


# name tuple -> its one Census
_CENSUSES: dict[tuple[str, ...], Census] = {}
EMPTY = Census(())
# (census, location name) and (sub, sup) -> the witness validated when first
# asked for
_MEMBERS: dict[tuple[Census, str], MembershipWitness] = {}
_SUBSETS: dict[tuple[Census, Census], SubsetWitness] = {}
# census -> the membership witness of each member, in census order
_LOOPS: dict[Census, tuple[MembershipWitness, ...]] = {}


def census_of(names: Iterable[str]) -> Census:
    """The census of these location names, in the given order.

    Raises EmptyCensusError for an empty list and DuplicateLocationError for a
    repeated name.
    """
    key = tuple(names)
    if not key:
        raise EmptyCensusError("a census must contain at least one location")
    return Census(key)


@dataclass(frozen=True)
class MembershipWitness:
    """Proof that `location` is a member of `census`.

    Only `member` constructs these.  `alone` is the census of `location`
    alone, the owner set of a value computed there.
    """

    location: str
    census: Census
    alone: Census = field(compare=False, repr=False)


@dataclass(frozen=True)
class SubsetWitness:
    """Proof that every member of `sub` appears in `sup`.  Only `subset`
    constructs these."""

    sub: Census
    sup: Census


def member(name: str, census: Census) -> MembershipWitness:
    """Witness that `name` belongs to `census`; raises NotAMemberError."""
    key = (census, name)
    witness = _MEMBERS.get(key)
    if witness is None:
        if name not in census._positions:
            raise NotAMemberError(f"{name!r} is not in census {census.names}")
        witness = _MEMBERS.setdefault(key, MembershipWitness(name, census, Census((name,))))
    return witness


def member_witnesses(census: Census) -> tuple[MembershipWitness, ...]:
    """The membership witness of every member of `census`, in census order:
    what a loop over the census hands each iteration."""
    witnesses = _LOOPS.get(census)
    if witnesses is None:
        witnesses = tuple(member(name, census) for name in census._names)
        witnesses = _LOOPS.setdefault(census, witnesses)
    return witnesses


def subset(sub: Census, sup: Census) -> SubsetWitness:
    """Witness that `sub` is contained in `sup`; raises NotASubsetError
    naming the first offending location."""
    key = (sub, sup)
    witness = _SUBSETS.get(key)
    if witness is not None:
        return witness
    for name in sub._names:
        if name not in sup._positions:
            raise NotASubsetError(f"{name!r} is not in census {sup.names}")
    return _SUBSETS.setdefault(key, SubsetWitness(sub, sup))


def compose(m: MembershipWitness, s: SubsetWitness) -> MembershipWitness:
    """From p in A and A subset-of B, derive p in B."""
    if m.census is not s.sub:
        raise WitnessMismatchError(
            f"membership is over {m.census.names}, subset is from {s.sub.names}"
        )
    return member(m.location, s.sup)
