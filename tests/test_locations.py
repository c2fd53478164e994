import pytest
from hypothesis import given
from hypothesis import strategies as st

from choreo import EMPTY, Census, census_of, compose, member, subset
from choreo.errors import (
    DuplicateLocationError,
    EmptyCensusError,
    NotAMemberError,
    NotASubsetError,
    WitnessMismatchError,
)


def test_census_of_order_and_contents():
    census = census_of(["client", "primary", "backup"])
    assert census.names == ("client", "primary", "backup")
    assert len(census) == 3
    assert "primary" in census and "mallory" not in census


def test_census_of_rejects_empty_and_duplicates():
    with pytest.raises(EmptyCensusError):
        census_of([])
    with pytest.raises(DuplicateLocationError):
        census_of(["a", "a"])


def test_member_witness_index():
    census = census_of(["client", "primary", "backup"])
    w = member("primary", census)
    assert w.index == 1 and w.location.name == "primary"
    assert member("backup", census_of(["primary", "backup"])).index == 1
    with pytest.raises(NotAMemberError):
        member("mallory", census)


def test_subset_witness():
    servers = census_of(["primary", "backup"])
    participants = census_of(["client", "primary", "backup"])
    s = subset(servers, participants)
    assert s.index_map == (1, 2)
    identity = subset(participants, participants)
    assert identity.index_map == (0, 1, 2)
    with pytest.raises(NotASubsetError, match="client"):
        subset(census_of(["client"]), servers)
    assert subset(EMPTY, servers).index_map == ()


def test_compose():
    servers = census_of(["primary", "backup"])
    participants = census_of(["client", "primary", "backup"])
    m = compose(member("backup", servers), subset(servers, participants))
    assert m.index == 2 and m.census == participants
    # identity law
    p = member("primary", servers)
    assert compose(p, subset(servers, servers)) == p
    with pytest.raises(WitnessMismatchError):
        compose(member("client", participants), subset(servers, participants))


names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3), min_size=1, max_size=6, unique=True
)


@given(names, st.data())
def test_witness_soundness_property(listed, data):
    census = census_of(listed)
    name = data.draw(st.sampled_from(listed))
    w = member(name, census)
    assert census.members[w.index].name == name

    take = data.draw(st.lists(st.sampled_from(listed), max_size=len(listed), unique=True))
    sub = Census(tuple(census.members[census.position(n)] for n in take))
    s = subset(sub, census)
    for i, loc in enumerate(sub.members):
        assert census.members[s.index_map[i]] == loc
        # composition law: compose(member(p, A), subset(A, B)) == member(p, B)
        assert compose(member(loc.name, sub), s) == member(loc.name, census)


def test_census_names_is_one_tuple_in_census_order():
    c = census_of(["carol", "alice", "bob"])
    assert c.names == ("carol", "alice", "bob")
    assert c.names is c.names
    assert EMPTY.names == () and EMPTY.names is EMPTY.names
    # equality, hashing and repr are still those of the member tuple
    assert c == census_of(["carol", "alice", "bob"])
    assert c != census_of(["alice", "bob", "carol"])
    assert hash(c) == hash(c.members)
    assert repr(c) == "Census('carol', 'alice', 'bob')"
    assert EMPTY == Census(()) and hash(EMPTY) == hash(())
    assert repr(EMPTY) == "Census()"
