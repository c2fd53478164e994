"""Projection of run results to plain, comparable, JSON-able structures.

A view describes a choreography's return value *as seen by one endpoint*:
located values collapse to their payload at owners and to an absent marker at
non-owners, faceted values collapse to the endpoint's own facet, quires list
their entries in key order.  Views from a centralized run and a simulated or
TCP run of the same protocol compare equal, which is what the equivalence
suites check.
"""

import json
from typing import Any

from ..errors import EncodeError
from ..located import Faceted, MultiplyLocated, Quire
from ..locations import Census
from ..portable import Variant, encode

ABSENT_MARK = "?absent"


def view(value: Any, endpoint: str | None) -> Any:
    if isinstance(value, MultiplyLocated):
        present = value._present and (endpoint is None or endpoint in value.owners)
        return {
            "located": list(value.owners.names),
            "value": view(value._value, endpoint) if present else ABSENT_MARK,
        }
    if isinstance(value, Faceted):
        has = endpoint in value._facets
        return {
            "faceted": list(value.owners.names),
            "facet": view(value._facets[endpoint], endpoint) if has else ABSENT_MARK,
        }
    if isinstance(value, Quire):
        return {"quire": [[name, view(v, endpoint)] for name, v in value.items()]}
    if isinstance(value, Variant):
        return {"variant": value.tag, "value": view(value.value, endpoint)}
    if isinstance(value, Census):
        return {"census": list(value.names)}
    if isinstance(value, bytes):
        return {"bytes": value.hex()}
    if isinstance(value, (tuple, list)):
        return [view(v, endpoint) for v in value]
    if isinstance(value, dict):
        entries = sorted(
            ((k if isinstance(k, str) else repr(k)), view(v, endpoint))
            for k, v in value.items()
        )
        return {"map": [[k, v] for k, v in entries]}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return {"repr": repr(value)}


def view_json(v: Any) -> str:
    """Canonical single-line JSON of a view (used for printed results)."""
    return json.dumps(v, sort_keys=True, separators=(",", ":"))


def canonical_bytes(value: Any) -> bytes:
    """Deterministic bytes for a naked value, used for branch-outcome logs."""
    try:
        return encode(value)
    except EncodeError:
        return view_json(view(value, None)).encode("utf-8")


def try_encode(value: Any) -> bytes | None:
    """Canonical encoding when the value is portable, else None (the value
    agreement check then skips byte comparison for it)."""
    try:
        return encode(value)
    except EncodeError:
        return None
