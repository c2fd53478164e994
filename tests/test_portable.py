import enum
import struct
from array import array
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from choreo.errors import DecodeError, EncodeError
from choreo.portable import Variant, decode, encode, plain


def test_golden_encodings():
    # The byte grammar is a frozen external interface.
    assert encode(None) == b"\x00"
    assert encode(True) == b"\x01\x01"
    assert encode(False) == b"\x01\x00"
    assert encode(0) == b"\x02" + b"\x00" * 8
    assert encode(-1) == b"\x02" + b"\xff" * 8
    assert encode(258) == b"\x02\x00\x00\x00\x00\x00\x00\x01\x02"
    assert encode("hi") == b"\x03\x00\x00\x00\x02hi"
    assert encode(("k", 1)) == b"\x04" + encode("k") + encode(1)
    assert encode(Variant(3, True)) == b"\x05\x03\x01\x01"
    assert encode([True, False]) == b"\x06\x00\x00\x00\x02\x01\x01\x01\x00"
    assert encode({"b": 1, "a": 2}) == (
        b"\x07\x00\x00\x00\x02" + encode("a") + encode(2) + encode("b") + encode(1)
    )


def test_map_entries_sorted_by_encoded_key():
    # Identical values give identical bytes regardless of insertion order.
    assert encode({"x": 1, "y": 2}) == encode({"y": 2, "x": 1})


def test_roundtrip_examples():
    values = [
        None,
        True,
        -(1 << 63),
        (1 << 63) - 1,
        "",
        "déjà vu",
        ("pair", (1, 2)),
        Variant(0, "Get"),
        Variant(255, None),
        [],
        [1, "two", [True]],
        {},
        {"k": 5, "other": [None]},
        {1: "int key", ("a", 0): "pair key"},
    ]
    for v in values:
        assert decode(encode(v)) == v


def test_determinism():
    v = Variant(1, ("k", 5))
    assert encode(v) == encode(Variant(1, ("k", 5)))


def test_encode_rejects_out_of_grammar():
    with pytest.raises(EncodeError):
        encode(1 << 63)
    with pytest.raises(EncodeError):
        encode(3.14)
    with pytest.raises(EncodeError):
        encode((1, 2, 3))  # only 2-tuples are pairs
    with pytest.raises(EncodeError):
        encode(Variant(256, None))
    with pytest.raises(EncodeError):
        encode(b"raw bytes")


@pytest.mark.parametrize("value, text", [
    (Variant(1.5), "variant index must be an int, not float"),
    (Variant("a"), "variant index must be an int, not str"),
    (Variant(-1), "variant index out of range: -1"),
    ("\ud800", "text is not encodable as UTF-8: surrogates not allowed"),
    ({"\udfff": 1}, "text is not encodable as UTF-8: surrogates not allowed"),
    ([Variant(None)], "variant index must be an int, not NoneType"),
], ids=["float-tag", "str-tag", "negative-tag", "surrogate", "surrogate-key", "nested"])
def test_values_outside_the_grammar_raise_encode_error(value, text):
    # Only EncodeError tells a caller (canonical_bytes, try_encode) that a
    # value is not portable; a TypeError or UnicodeEncodeError escapes them.
    with pytest.raises(EncodeError) as info:
        encode(value)
    assert str(info.value) == text


def _nested_lists(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def test_deep_nesting_raises_the_codecs_own_errors():
    # The codec recurses once per nesting level.  Running out of stack on 25 kB
    # that a peer could send, or on a deep or cyclic value, is a codec error.
    with pytest.raises(DecodeError, match="^encoding nests too deeply to decode$"):
        decode(b"\x06\x00\x00\x00\x01" * 5000 + b"\x00")
    cyclic = []
    cyclic.append(cyclic)
    for value in (_nested_lists(5000), cyclic):
        with pytest.raises(EncodeError, match="^value nests too deeply to encode$"):
            encode(value)
    shallow = _nested_lists(200)
    assert decode(encode(shallow)) == shallow


def test_decode_rejects_malformed():
    with pytest.raises(DecodeError):
        decode(b"")
    with pytest.raises(DecodeError):
        decode(b"\x99")
    with pytest.raises(DecodeError):
        decode(encode(42)[:-1])  # truncated frame
    with pytest.raises(DecodeError):
        decode(encode(42) + b"\x00")  # trailing bytes
    with pytest.raises(DecodeError):
        decode(b"\x01\x07")  # bad boolean byte
    # unsorted map entries are not canonical
    bad = b"\x07\x00\x00\x00\x02" + encode("b") + encode(1) + encode("a") + encode(2)
    with pytest.raises(DecodeError):
        decode(bad)


portable_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
    | st.text(max_size=20),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.builds(Variant, st.integers(0, 255), inner),
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=12,
)


@given(portable_values)
def test_roundtrip_property(value):
    data = encode(value)
    assert decode(data) == value
    assert encode(value) == data
    # a bytes-like view of the same bytes decodes to the same value
    assert decode(memoryview(data)) == value and decode(bytearray(data)) == value


def test_views_decode_as_their_bytes():
    for value in ("text", {"a": 1, "b": [2, "c"], "d": None}, [True, ("x", -1)]):
        data = encode(value)
        for view in (memoryview(data), bytearray(data), memoryview(bytearray(data))):
            back = decode(view)
            assert back == value and type(back) is type(value)


INT64_EDGES = (-(1 << 63), -(1 << 63) + 1, -1, 0, 1, 2, (1 << 63) - 2, (1 << 63) - 1)


@given(st.booleans() | st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
def test_scalars_encode_to_the_grammar_and_keep_their_type(value):
    # True is also an int: encode must give each its own tag, and decode
    # must give back the type that went in.
    if isinstance(value, bool):
        expected = bytes((1, int(value)))
    else:
        expected = b"\x02" + struct.pack(">q", value)
    data = encode(value)
    assert data == expected
    back = decode(data)
    assert back == value and type(back) is type(value)
    # the same bytes, and the same type, inside a container
    assert encode([value]) == b"\x06\x00\x00\x00\x01" + expected
    assert type(decode(encode([value]))[0]) is type(value)


def test_int64_edges_and_bool_int_lookalikes():
    for v in INT64_EDGES:
        assert decode(encode(v)) == v and type(decode(encode(v))) is int
    assert encode(True) != encode(1) and encode(False) != encode(0)
    assert decode(encode(1)) is not True and decode(encode(True)) is True
    assert decode(encode(0)) is not False and decode(encode(False)) is False
    assert encode((True, 0)) == b"\x04\x01\x01" + encode(0)
    assert [type(x) for x in decode(encode((False, 1)))] == [bool, int]
    for out_of_range in (-(1 << 63) - 1, 1 << 63):
        with pytest.raises(EncodeError):
            encode(out_of_range)


class _Text(str):
    pass


class _Pair(NamedTuple):
    key: str
    value: int


class _Small(enum.IntEnum):
    SEVEN = 7


@pytest.mark.parametrize("value, base", [
    (_Text("hi"), "hi"),
    (_Pair("k", 1), ("k", 1)),
    (_Small.SEVEN, 7),
    ([_Text("a"), _Pair(_Text("b"), _Small.SEVEN)], ["a", ("b", 7)]),
    ({_Text("k"): _Small.SEVEN}, {"k": 7}),
], ids=["str-subclass", "namedtuple", "intenum", "nested-list", "map"])
def test_subclasses_encode_as_their_base_values(value, base):
    # Subclasses take the general path; it must write the base value's bytes,
    # and decode gives back the base types.
    data = encode(value)
    assert data == encode(base)
    back = decode(data)
    assert back == base and type(back) is type(base)
    if isinstance(base, list):
        assert [type(x) for x in back] == [str, tuple]
        assert [type(x) for x in back[1]] == [str, int]


@pytest.mark.parametrize("data, text", [
    (b"\x01\x02", "bad boolean byte 2"),
    (b"\x01", "truncated encoding"),
    (b"", "truncated encoding"),
    (b"\x04\x01\x01", "truncated encoding"),
    (b"\x03\x00\x00\x00\x05ab", "truncated encoding"),
    (b"\x03\x00\x00", "truncated encoding"),
    (b"\x02\x00", "truncated encoding"),
    (b"\x05", "truncated encoding"),
    (b"\x06\x00\x00\x00\x01", "truncated encoding"),
    (b"\x01\x01\x00", "1 trailing bytes after value"),
    (encode(5) + bytes(7), "7 trailing bytes after value"),
    (b"\x04\x01\x01\x01\x07", "bad boolean byte 7"),
    (b"\x03\x00\x00\x00\x01\xff", "invalid UTF-8 in text value: 'utf-8' codec can't decode "
     "byte 0xff in position 0: invalid start byte"),
    (b"\x07\x00\x00\x00\x02" + encode("b") + encode(1) + encode("a") + encode(2),
     "map keys not in canonical order"),
])
def test_malformed_input_gives_its_error_text(data, text):
    # bytes, and a bytes-like view of them, fail alike
    wide = [array("H", data)] if len(data) % 2 == 0 else []
    for view in [data, memoryview(data), bytearray(data)] + wide:
        with pytest.raises(DecodeError) as info:
            decode(view)
        assert str(info.value) == text


@pytest.mark.parametrize("value", [(1, 2, 3), (), ("one",), _Pair("k", 1) + (2,)])
def test_tuples_other_than_pairs_do_not_encode(value):
    with pytest.raises(EncodeError) as info:
        encode(value)
    assert str(info.value) == "only 2-tuples encode (as pairs); use a list"


@pytest.mark.parametrize("value", [
    None, True, False, 0, -(1 << 63), "", "déjà vu", ("k", 1), (True, (None, "x")),
])
def test_plain_values_come_back_equal_and_of_the_same_types(value):
    assert plain(value)
    back = decode(encode(value))
    assert back == value and repr(back) == repr(value)
    if isinstance(value, tuple):
        assert [type(x) for x in back] == [type(x) for x in value]


@pytest.mark.parametrize("value", [
    [1], {"a": 1}, Variant(0, 1), (1, [2]), (1, 2, 3), 3.5, b"x",
    _Text("hi"), _Pair("k", 1), _Small.SEVEN, ("k", _Small.SEVEN),
])
def test_mutable_values_and_subclasses_are_not_plain(value):
    # These must round-trip: a list or dict could be changed by a receiver,
    # and a subclass decodes as its base type.
    assert not plain(value)
