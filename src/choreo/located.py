"""The three located-data containers.

MultiplyLocated: one value owned identically by a set of locations; its
presence is its ownership, and a non-owner holds the `ABSENT` placeholder.
It is never mutated after construction, so a non-owner holds one shared
absent value per owner set in place of a new one per operator: `_ABSENT_AT`
is a dict from owner set to that value, and subscripting it with an owner set
it has not seen builds the value once.
Faceted: per-owner *distinct* private values under one handle, held as a dict
from owner name to facet that lists the facets the interpreter can see.
Quire: a complete location-to-value map held wholly by whoever has it.

Owners and keys are location names (`str`): a location is its name.

MultiplyLocated and Faceted are constructed only by the runtime;
choreographies read them through unwrappers, `naked`, or the loop operators.
Quire is an ordinary container with a public constructor.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from .errors import ContractError
from .locations import Census


class _AbsentType:
    """Placeholder payload at endpoints that do not own a value."""

    def __repr__(self) -> str:
        return "Absent"


ABSENT = _AbsentType()


class MultiplyLocated:
    """A value annotated with its non-empty owner set.

    Presence is ownership: the payload is present exactly where the viewer is
    an owner.  An endpoint that does not own the value stores `ABSENT`; the
    centralized oracle stores the single agreed value.
    """

    __slots__ = ("_owners", "_value")

    def __init__(self, owners: Census, value: Any):
        self._owners = owners
        self._value = value

    @property
    def owners(self) -> Census:
        return self._owners

    def __repr__(self) -> str:
        return f"<Located {list(self._owners.names)}>"


class _AbsentTable(dict):
    """Owner set -> the one shared `MultiplyLocated(owners, ABSENT)`; a hit
    is a plain dict lookup, a miss builds and keeps the value."""

    def __missing__(self, owners: Census) -> MultiplyLocated:
        return self.setdefault(owners, MultiplyLocated(owners, ABSENT))


_ABSENT_AT = _AbsentTable()


class Faceted:
    """Per-owner private values; each owner can read only its own facet.

    `_facets` maps owner name to facet for the owners the interpreter sees:
    every owner in a centralized run; at an endpoint, its own facet if it is
    an owner and nothing otherwise.
    """

    __slots__ = ("_owners", "_facets")

    def __init__(self, owners: Census, facets: dict[str, Any]):
        self._owners = owners
        self._facets = facets

    @property
    def owners(self) -> Census:
        return self._owners

    def __repr__(self) -> str:
        return f"<Faceted {list(self._owners.names)}>"


class Quire:
    """A total map from a census to values, iterated in census order."""

    __slots__ = ("_keys", "_entries")

    def __init__(self, keys: Census, entries: Mapping[str, Any]):
        entries = dict(entries)
        try:
            positions = keys._positions
        except AttributeError:
            raise TypeError(f"quire keys must be a Census, not {type(keys).__name__}") from None
        if entries.keys() != positions.keys():
            missing = [n for n in keys._names if n not in entries]
            extra = [n for n in entries if n not in positions]
            raise ContractError(
                f"quire entries do not match keys (missing={missing}, extra={extra})"
            )
        self._keys = keys
        self._entries = entries

    @property
    def keys(self) -> Census:
        return self._keys

    def __getitem__(self, name: str) -> Any:
        return self._entries[name]

    def values(self) -> list[Any]:
        return list(map(self._entries.__getitem__, self._keys._names))

    def items(self) -> list[tuple[str, Any]]:
        names = self._keys._names
        return list(zip(names, map(self._entries.__getitem__, names)))

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values())

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Quire)
            and self._keys == other._keys
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"Quire({self.items()!r})"
