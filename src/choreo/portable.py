"""Canonical, deterministic, self-describing byte encoding for wire values.

Grammar (one tag byte, then a payload):

    0  unit       no payload                      Python None
    1  bool       one byte, 0 or 1
    2  int64      8-byte big-endian two's complement
    3  text       4-byte big-endian length, then UTF-8
    4  pair       two encodings back to back      Python 2-tuple
    5  union      1-byte variant index, then one encoding   Variant
    6  sequence   4-byte big-endian count, then encodings   Python list
    7  map        4-byte big-endian count, then key/value encodings,
                  entries sorted by encoded key bytes        Python dict

encode is deterministic (identical values give identical bytes) and
decode(encode(v)) == v for every value of the grammar.  2-tuples are always
pairs; use lists for variable-length sequences.  A value of an exact grammar
type goes straight to its writer.  A subclass (a str subclass, a NamedTuple,
an IntEnum) takes the general path: the first grammar type it is an instance
of, in the order int, str, tuple, Variant, list, dict, writes the same bytes
as the base value, and decode gives back the base type.  decode reads any
other bytes-like object (a bytearray, a memoryview, an array) as the bytes it
holds.

`plain(v)` names the values the round trip cannot change: an exact bool,
int, str or None, or an exact 2-tuple of plain values.  decode(encode(v)) of
such a value equals v, has the same types, and neither can be mutated, so an
interpreter may hand a recipient the sender's value once `encode` has
accepted it.  Every other value (a list, a dict, a Variant, any subclass) is
either mutable or comes back as a different type, and must round-trip.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

from .errors import DecodeError, EncodeError

TAG_UNIT = 0
TAG_BOOL = 1
TAG_INT64 = 2
TAG_TEXT = 3
TAG_PAIR = 4
TAG_UNION = 5
TAG_SEQ = 6
TAG_MAP = 7

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_MAX_COUNT = (1 << 32) - 1


@dataclass(frozen=True)
class Variant:
    """A tagged-union value; `tag` selects the variant (0..255)."""

    tag: int
    value: Any = None


def encode(value: Any) -> bytes:
    if type(value) is bool:
        return _BOOLS[value]
    out = bytearray()
    _write(out, value)
    return bytes(out)


def plain(value: Any) -> bool:
    """True when `value` is an exact bool, int, str or None, or an exact
    2-tuple of plain values: decoding its encoding gives back an equal value
    of the same types."""
    t = type(value)
    if t is not tuple:
        return t in _PLAIN_ATOMS
    if len(value) != 2:
        return False
    first, second = value
    return ((type(first) in _PLAIN_ATOMS or type(first) is tuple and plain(first))
            and (type(second) in _PLAIN_ATOMS or type(second) is tuple and plain(second)))


def decode(data: bytes) -> Any:
    if type(data) is not bytes:
        data = memoryview(data).tobytes()
    if len(data) == 2 and data[0] == TAG_BOOL and data[1] < 2:
        return data[1] == 1
    try:
        value, offset = _read(data, 0)
    except (IndexError, struct.error):  # a tag, byte or count past the end
        raise DecodeError("truncated encoding") from None
    if offset != len(data):
        raise DecodeError(f"{len(data) - offset} trailing bytes after value")
    return value


_BOOLS = {False: bytes((TAG_BOOL, 0)), True: bytes((TAG_BOOL, 1))}
_BASES = (int, str, tuple, Variant, list, dict)
_EXACT = frozenset((bool, type(None)) + _BASES)
_PLAIN_ATOMS = frozenset((bool, int, str, type(None)))


def _write(out: bytearray, v: Any) -> None:
    t = type(v)
    if t not in _EXACT:
        t = next((base for base in _BASES if isinstance(v, base)), None)
        if t is None:
            raise EncodeError(f"value of type {type(v).__name__} is not portable")
    if t is bool:
        out += _BOOLS[v]
    elif t is str:
        try:
            raw = v.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise EncodeError(f"text is not encodable as UTF-8: {exc.reason}") from None
        if len(raw) > _MAX_COUNT:
            raise EncodeError("text too long")
        out.append(TAG_TEXT)
        out += struct.pack(">I", len(raw))
        out += raw
    elif t is tuple:
        if len(v) != 2:
            raise EncodeError("only 2-tuples encode (as pairs); use a list")
        out.append(TAG_PAIR)
        _write(out, v[0])
        _write(out, v[1])
    elif t is int:
        if not _INT64_MIN <= v <= _INT64_MAX:
            raise EncodeError(f"integer out of 64-bit range: {v}")
        out.append(TAG_INT64)
        out += v.to_bytes(8, "big", signed=True)
    elif v is None:
        out.append(TAG_UNIT)
    elif t is Variant:
        out.append(TAG_UNION)
        try:
            out.append(v.tag)
        except ValueError:
            raise EncodeError(f"variant index out of range: {v.tag}") from None
        except TypeError:
            raise EncodeError(
                f"variant index must be an int, not {type(v.tag).__name__}"
            ) from None
        _write(out, v.value)
    elif t is list:
        if len(v) > _MAX_COUNT:
            raise EncodeError("sequence too long")
        out.append(TAG_SEQ)
        out += struct.pack(">I", len(v))
        for item in v:
            _write(out, item)
    else:
        if len(v) > _MAX_COUNT:
            raise EncodeError("map too large")
        out.append(TAG_MAP)
        out += struct.pack(">I", len(v))
        for key_bytes, key in sorted((encode(k), k) for k in v):
            out += key_bytes
            _write(out, v[key])


def _read(data: bytes, offset: int) -> tuple[Any, int]:
    tag = data[offset]
    if tag == TAG_BOOL:
        b = data[offset + 1]
        if b > 1:
            raise DecodeError(f"bad boolean byte {b}")
        return b == 1, offset + 2
    offset += 1
    if tag == TAG_TEXT:
        (n,) = struct.unpack_from(">I", data, offset)
        raw = data[offset + 4 : offset + 4 + n]
        if len(raw) != n:
            raise DecodeError("truncated encoding")
        try:
            return raw.decode("utf-8"), offset + 4 + n
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid UTF-8 in text value: {exc}") from None
    if tag == TAG_PAIR:
        first, offset = _read(data, offset)
        second, offset = _read(data, offset)
        return (first, second), offset
    if tag == TAG_UNIT:
        return None, offset
    if tag == TAG_INT64:
        raw = data[offset : offset + 8]
        if len(raw) != 8:
            raise DecodeError("truncated encoding")
        return int.from_bytes(raw, "big", signed=True), offset + 8
    if tag == TAG_UNION:
        index = data[offset]
        value, offset = _read(data, offset + 1)
        return Variant(index, value), offset
    if tag == TAG_SEQ:
        (n,) = struct.unpack_from(">I", data, offset)
        offset += 4
        items = []
        for _ in range(n):
            item, offset = _read(data, offset)
            items.append(item)
        return items, offset
    if tag == TAG_MAP:
        (n,) = struct.unpack_from(">I", data, offset)
        offset += 4
        entries = {}
        prev_key_bytes = None
        for _ in range(n):
            key_start = offset
            key, offset = _read(data, offset)
            key_bytes = data[key_start:offset]
            if prev_key_bytes is not None and key_bytes <= prev_key_bytes:
                raise DecodeError("map keys not in canonical order")
            prev_key_bytes = key_bytes
            value, offset = _read(data, offset)
            try:
                entries[key] = value
            except TypeError:
                raise DecodeError("unhashable map key") from None
        return entries, offset
    raise DecodeError(f"unknown tag byte {tag}")
