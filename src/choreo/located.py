"""The three located-data containers.

MultiplyLocated: one value owned identically by a set of locations; present at
owners, absent elsewhere.  Faceted: per-owner *distinct* private values under
one handle, held as a dict from owner name to facet that lists the facets the
interpreter can see.  Quire: a complete location-to-value map held wholly by
whoever has it.

MultiplyLocated and Faceted are constructed only by the runtime;
choreographies read them through unwrappers, `naked`, or the loop operators.
Quire is an ordinary container with a public constructor.
"""

from typing import Any, Iterator, Mapping

from .errors import ContractError
from .locations import Census, Location


class _AbsentType:
    """Placeholder payload at endpoints that do not own a value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Absent"


ABSENT = _AbsentType()


class MultiplyLocated:
    """A value annotated with its non-empty owner set.

    At an endpoint the payload is present iff that endpoint is an owner; in a
    centralized run the payload is the single agreed value.
    """

    __slots__ = ("_owners", "_present", "_value")

    def __init__(self, owners: Census, present: bool, value: Any):
        self._owners = owners
        self._present = present
        self._value = value

    @property
    def owners(self) -> Census:
        return self._owners

    def __repr__(self) -> str:
        state = "present" if self._present else "absent"
        return f"<Located {list(self._owners.names)} {state}>"


def _located(owners: Census, present: bool, value: Any) -> MultiplyLocated:
    return MultiplyLocated(owners, present, value if present else ABSENT)


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
        missing = [n for n in keys.names if n not in entries]
        extra = [n for n in entries if n not in keys]
        if missing or extra:
            raise ContractError(
                f"quire entries do not match keys (missing={missing}, extra={extra})"
            )
        self._keys = keys
        self._entries = dict(entries)

    @property
    def keys(self) -> Census:
        return self._keys

    def get(self, name: str) -> Any:
        return self._entries[name]

    def __getitem__(self, key) -> Any:
        if isinstance(key, Location):
            key = key.name
        return self._entries[key]

    def values(self) -> list[Any]:
        return [self._entries[n] for n in self._keys.names]

    def items(self) -> list[tuple[str, Any]]:
        return [(n, self._entries[n]) for n in self._keys.names]

    def to_dict(self) -> dict[str, Any]:
        return {n: self._entries[n] for n in self._keys.names}

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
