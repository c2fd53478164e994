from types import MappingProxyType

import pytest

from choreo import Quire, census_of
from choreo.errors import ContractError


def test_quire_totality_and_order():
    keys = census_of(["b", "a", "c"])
    q = Quire(keys, {"a": 1, "b": 2, "c": 3})
    assert q.values() == [2, 1, 3]  # census order, not alphabetical
    assert q.items()[0] == ("b", 2)
    assert q["a"] == 1 and q["c"] == 3
    assert len(q) == 3
    assert list(q) == [2, 1, 3]
    assert q == Quire(keys, {"c": 3, "b": 2, "a": 1})
    assert dict(q.items()) == {"b": 2, "a": 1, "c": 3}


def test_quire_rejects_partial_or_extra_entries():
    keys = census_of(["a", "b"])
    for entries, text in (
        ({"a": 1}, "missing=['b'], extra=[]"),
        ({"a": 1, "b": 2, "z": 3}, "missing=[], extra=['z']"),
        ({"z": 3, "b": 2}, "missing=['a'], extra=['z']"),
        ({}, "missing=['a', 'b'], extra=[]"),
    ):
        with pytest.raises(ContractError) as info:
            Quire(keys, entries)
        assert str(info.value) == f"quire entries do not match keys ({text})"


def test_quire_takes_any_mapping_and_keeps_its_own_copy():
    keys = census_of(["b", "a"])
    entries = {"a": 1, "b": 2}
    q = Quire(keys, MappingProxyType(entries))
    assert q.items() == [("b", 2), ("a", 1)]
    entries["a"] = 99
    del entries["b"]
    assert q.values() == [2, 1] and dict(q.items()) == {"b": 2, "a": 1}


def test_quire_keys_must_be_a_census():
    for keys in (["p"], ("p",), "p", None):
        with pytest.raises(TypeError) as info:
            Quire(keys, {"p": 1})
        assert str(info.value) == f"quire keys must be a Census, not {type(keys).__name__}"
