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
pairs; use lists for variable-length sequences.
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
    out = bytearray()
    _write(out, value)
    return bytes(out)


def decode(data: bytes) -> Any:
    value, offset = _read(data, 0)
    if offset != len(data):
        raise DecodeError(f"{len(data) - offset} trailing bytes after value")
    return value


def _write(out: bytearray, v: Any) -> None:
    if v is None:
        out.append(TAG_UNIT)
    elif isinstance(v, bool):
        out.append(TAG_BOOL)
        out.append(1 if v else 0)
    elif isinstance(v, int):
        if not _INT64_MIN <= v <= _INT64_MAX:
            raise EncodeError(f"integer out of 64-bit range: {v}")
        out.append(TAG_INT64)
        out += v.to_bytes(8, "big", signed=True)
    elif isinstance(v, str):
        raw = v.encode("utf-8")
        if len(raw) > _MAX_COUNT:
            raise EncodeError("text too long")
        out.append(TAG_TEXT)
        out += struct.pack(">I", len(raw))
        out += raw
    elif isinstance(v, tuple):
        if len(v) != 2:
            raise EncodeError("only 2-tuples encode (as pairs); use a list")
        out.append(TAG_PAIR)
        _write(out, v[0])
        _write(out, v[1])
    elif isinstance(v, Variant):
        if not 0 <= v.tag <= 255:
            raise EncodeError(f"variant index out of range: {v.tag}")
        out.append(TAG_UNION)
        out.append(v.tag)
        _write(out, v.value)
    elif isinstance(v, list):
        if len(v) > _MAX_COUNT:
            raise EncodeError("sequence too long")
        out.append(TAG_SEQ)
        out += struct.pack(">I", len(v))
        for item in v:
            _write(out, item)
    elif isinstance(v, dict):
        if len(v) > _MAX_COUNT:
            raise EncodeError("map too large")
        out.append(TAG_MAP)
        out += struct.pack(">I", len(v))
        for key_bytes, key in sorted((encode(k), k) for k in v):
            out += key_bytes
            _write(out, v[key])
    else:
        raise EncodeError(f"value of type {type(v).__name__} is not portable")


def _need(data: bytes, offset: int, n: int) -> None:
    if offset + n > len(data):
        raise DecodeError("truncated encoding")


def _read(data: bytes, offset: int) -> tuple[Any, int]:
    _need(data, offset, 1)
    tag = data[offset]
    offset += 1
    if tag == TAG_UNIT:
        return None, offset
    if tag == TAG_BOOL:
        _need(data, offset, 1)
        b = data[offset]
        if b not in (0, 1):
            raise DecodeError(f"bad boolean byte {b}")
        return bool(b), offset + 1
    if tag == TAG_INT64:
        _need(data, offset, 8)
        return int.from_bytes(data[offset : offset + 8], "big", signed=True), offset + 8
    if tag == TAG_TEXT:
        _need(data, offset, 4)
        (n,) = struct.unpack_from(">I", data, offset)
        offset += 4
        _need(data, offset, n)
        try:
            text = data[offset : offset + n].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid UTF-8 in text value: {exc}") from None
        return text, offset + n
    if tag == TAG_PAIR:
        first, offset = _read(data, offset)
        second, offset = _read(data, offset)
        return (first, second), offset
    if tag == TAG_UNION:
        _need(data, offset, 1)
        index = data[offset]
        value, offset = _read(data, offset + 1)
        return Variant(index, value), offset
    if tag == TAG_SEQ:
        _need(data, offset, 4)
        (n,) = struct.unpack_from(">I", data, offset)
        offset += 4
        items = []
        for _ in range(n):
            item, offset = _read(data, offset)
            items.append(item)
        return items, offset
    if tag == TAG_MAP:
        _need(data, offset, 4)
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
