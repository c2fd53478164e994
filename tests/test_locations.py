import copy
import pickle
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from choreo import (
    EMPTY,
    Census,
    Choreography,
    SubsetWitness,
    census_of,
    compose,
    member,
    run_centralized,
    subset,
)
from choreo.errors import (
    DuplicateLocationError,
    EmptyCensusError,
    NotAMemberError,
    NotASubsetError,
    WitnessMismatchError,
)
from choreo.locations import _CENSUSES, member_witnesses
from choreo.protocols import gmw as G


def test_census_of_order_and_contents():
    census = census_of(["client", "primary", "backup"])
    assert census.names == ("client", "primary", "backup")
    assert len(census) == 3
    assert "primary" in census and "mallory" not in census
    assert list(census) == ["client", "primary", "backup"]


def test_census_of_rejects_empty_and_duplicates():
    with pytest.raises(EmptyCensusError):
        census_of([])
    with pytest.raises(DuplicateLocationError):
        census_of(["a", "a"])


def test_location_names_must_be_non_empty():
    for build in (lambda: census_of([""]), lambda: Census(("",))):
        with pytest.raises(ValueError, match="^location name must be non-empty$"):
            build()
    for names, kind in (([1, 2], "int"), (["a", b"b"], "bytes"), ([0], "int")):
        for build in (census_of, Census):
            with pytest.raises(TypeError, match=f"^location name must be a str, not {kind}$"):
                build(names)


def test_member_witness():
    census = census_of(["client", "primary", "backup"])
    w = member("primary", census)
    assert w.location == "primary" and w.census is census
    with pytest.raises(NotAMemberError):
        member("mallory", census)


def test_subset_witness():
    servers = census_of(["primary", "backup"])
    participants = census_of(["client", "primary", "backup"])
    s = subset(servers, participants)
    assert s.sub is servers and s.sup is participants
    with pytest.raises(NotASubsetError, match="client"):
        subset(census_of(["client"]), servers)
    assert subset(EMPTY, servers).sub is EMPTY


def test_compose():
    servers = census_of(["primary", "backup"])
    participants = census_of(["client", "primary", "backup"])
    m = compose(member("backup", servers), subset(servers, participants))
    assert m.location == "backup" and m.census == participants
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
    assert w.location == name and w.census is census

    take = data.draw(st.lists(st.sampled_from(listed), max_size=len(listed), unique=True))
    sub = Census(take)
    s = subset(sub, census)
    for loc in sub:
        # composition law: compose(member(p, A), subset(A, B)) == member(p, B)
        assert compose(member(loc, sub), s) == member(loc, census)


def test_census_names_is_one_tuple_in_census_order():
    c = census_of(["carol", "alice", "bob"])
    assert c.names == ("carol", "alice", "bob")
    assert c.names is c.names
    assert EMPTY.names == () and EMPTY.names is EMPTY.names
    # one census per name tuple, so equality and hashing are identity
    assert c == census_of(["carol", "alice", "bob"])
    assert c != census_of(["alice", "bob", "carol"])
    assert hash(c) == hash(census_of(["carol", "alice", "bob"]))
    assert "__eq__" not in Census.__dict__ and "__hash__" not in Census.__dict__
    assert repr(c) == "Census('carol', 'alice', 'bob')"
    assert EMPTY == Census(()) and Census(()) is EMPTY
    assert repr(EMPTY) == "Census()"


# -- the intern tables (censuses by name tuple, witnesses by census pair) ----


def test_census_of_interns_and_direct_censuses_still_equal():
    c = census_of(["carol", "alice"])
    assert census_of(("carol", "alice")) is c
    direct = Census(("carol", "alice"))
    assert direct is c
    assert direct == c and c == direct and hash(direct) == hash(c)
    assert direct != census_of(["alice", "carol"])


def test_a_warm_witness_cache_still_rejects_a_non_subset():
    sup = census_of(["client", "primary", "backup"])
    servers = census_of(["primary", "backup"])
    subset(servers, sup)
    subset(sup, sup)
    for _ in range(2):
        with pytest.raises(NotASubsetError, match="client"):
            subset(sup, servers)
        with pytest.raises(NotASubsetError, match="mallory"):
            subset(census_of(["primary", "mallory"]), sup)


@given(names, st.data())
def test_cached_witness_equals_a_freshly_validated_one(listed, data):
    sup = census_of(listed)
    take = data.draw(st.lists(st.sampled_from(listed), max_size=len(listed), unique=True))
    direct = Census(take)
    first = subset(direct, sup)
    again = subset(census_of(take) if take else EMPTY, sup)
    assert again is first
    fresh = SubsetWitness(direct, sup)
    assert again == fresh
    assert again.sub.names == tuple(take) and again.sup is sup


def test_a_repeated_oracle_run_builds_no_census():
    circuit = G.parse_circuit("(and (in p1) (in p2))")
    census = census_of(["p1", "p2", "p3"])
    chor = Choreography(lambda b, c: G.mpc(b, c))

    def run():
        inputs = {"p1": deque([True]), "p2": deque([True])}
        return run_centralized(chor, census, circuit, seed=5, inputs=inputs)

    first = run()
    built = len(_CENSUSES)
    second = run()
    assert second.serialize() == first.serialize()
    assert len(_CENSUSES) == built


def test_compose_returns_the_interned_member_witness():
    servers = census_of(["primary", "backup"])
    participants = census_of(["client", "primary", "backup"])
    into = subset(servers, participants)
    for name in servers.names:
        assert compose(member(name, servers), into) is member(name, participants)
    assert compose(member("backup", servers), subset(servers, servers)) is member(
        "backup", servers
    )


def test_loop_witnesses_are_shared_across_runs():
    census = census_of(["p1", "p2", "p3"])
    handed = []

    def chor(b, args):
        def per(w):
            handed.append(w)
            return lambda bb: bb.locally(w, lambda un: 0)

        return b.fanout(b.everyone(), per)

    run_centralized(chor, census).require_success()
    run_centralized(chor, census).require_success()
    assert tuple(handed[:3]) == member_witnesses(census)
    assert all(a is b for a, b in zip(handed[:3], handed[3:]))
    assert all(w is member(w.location, census) for w in handed)
    assert member_witnesses(Census(census.names)) is member_witnesses(census)


def test_a_warm_member_cache_still_rejects_a_non_member():
    census = census_of(["alice", "bob"])
    member("alice", census)
    member_witnesses(census)
    direct = Census(("alice", "bob"))
    for _ in range(2):
        with pytest.raises(NotAMemberError, match="mallory"):
            member("mallory", census)
        with pytest.raises(NotAMemberError, match="mallory"):
            member("mallory", direct)


def test_copies_and_pickles_of_a_census_are_the_census():
    census = census_of(["alice", "bob"])
    for c in (census, member("bob", census).census, subset(EMPTY, census).sub, EMPTY):
        assert copy.deepcopy(c) is c and copy.copy(c) is c
        assert pickle.loads(pickle.dumps(c)) is c
    assert copy.deepcopy([census, EMPTY]) == [census, EMPTY]
    assert EMPTY.names == () and len(EMPTY) == 0
