"""GMW secure computation over boolean circuits.

Inputs are split into xor shares so the whole census jointly holds every
intermediate wire value without anyone seeing it.  Xor gates are free (each
party xors its own shares); and-gates need one 1-of-2 oblivious transfer per
ordered pair of parties; reveal gathers all shares to everyone and folds them.

The oblivious transfer here is structurally faithful but deliberately toy
crypto: the receiver publishes two digests and keeps the preimage pad of the
selected slot only, so only an honest receiver is limited to one value.  The
two-message pattern, the selection function, and the sender's inability to see
the choice (its received bytes do not depend on the select bit) are the
properties the tests check.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import Any, Iterable

from ..errors import (
    ConfigError,
    ContractError,
    EmptyFoldError,
    InputExhaustedError,
    NotAMemberError,
)
from ..located import Faceted, Quire
from ..locations import census_of, compose, member_witnesses, subset
from ..ops import OperatorBundle


@dataclass(frozen=True)
class InputWire:
    owner: str


@dataclass(frozen=True)
class LitWire:
    bit: bool


@dataclass(frozen=True)
class AndGate:
    left: "Circuit"
    right: "Circuit"


@dataclass(frozen=True)
class XorGate:
    left: "Circuit"
    right: "Circuit"


Circuit = InputWire | LitWire | AndGate | XorGate


def xor_fold(bits: Iterable[Any]) -> bool:
    """Parity of the true entries; empty input is an error."""
    items = list(bits)
    if not items:
        raise EmptyFoldError("xor fold over an empty sequence")
    return sum(map(bool, items)) % 2 == 1


def gen_shares(n: int, secret: bool, rng) -> list[bool]:
    """n xor shares of `secret`: all but the first drawn from `rng`, the first
    chosen so the fold of all of them reconstructs the secret."""
    if n < 1:
        raise ContractError("need at least one share")
    free = [bool(rng.getrandbits(1)) for _ in range(n - 1)]
    return [xor_fold([secret, *free]), *free]


def circuit_input_owners(circuit: Circuit) -> list[str]:
    """Input wire owners in evaluation order (depth-first, left to right)."""
    if isinstance(circuit, InputWire):
        return [circuit.owner]
    if isinstance(circuit, (AndGate, XorGate)):
        return circuit_input_owners(circuit.left) + circuit_input_owners(circuit.right)
    return []


def eval_circuit(circuit: Circuit, inputs: dict[str, deque]) -> bool:
    """Plain evaluation oracle; consumes one bit per input wire, in the same
    order the shared evaluation does."""
    if isinstance(circuit, LitWire):
        return circuit.bit
    if isinstance(circuit, InputWire):
        stream = inputs.get(circuit.owner)
        if not stream:
            raise InputExhaustedError(f"no input left for {circuit.owner!r}")
        return bool(stream.popleft())
    if isinstance(circuit, AndGate):
        left = eval_circuit(circuit.left, inputs)
        right = eval_circuit(circuit.right, inputs)
        return left and right
    if isinstance(circuit, XorGate):
        left = eval_circuit(circuit.left, inputs)
        right = eval_circuit(circuit.right, inputs)
        return left != right
    raise ContractError(f"not a circuit: {circuit!r}")


def parse_circuit(text: str) -> Circuit:
    """Parse the s-expression circuit format, e.g.
    `(xor (and (in p1) (lit 1)) (in p2))`."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    circuit, rest = _parse_tokens(tokens)
    if rest:
        raise ConfigError(f"trailing tokens after circuit: {' '.join(rest)}")
    return circuit


def _parse_tokens(tokens: list[str]) -> tuple[Circuit, list[str]]:
    if not tokens:
        raise ConfigError("unexpected end of circuit")
    head, *rest = tokens
    if head != "(":
        raise ConfigError(f"expected '(' but found {head!r}")
    if not rest:
        raise ConfigError("unexpected end of circuit")
    op, *rest = rest
    if op == "in":
        if len(rest) < 2 or rest[1] != ")":
            raise ConfigError("(in NAME) takes exactly one name")
        return InputWire(rest[0]), rest[2:]
    if op == "lit":
        if len(rest) < 2 or rest[0] not in ("0", "1") or rest[1] != ")":
            raise ConfigError("(lit BIT) takes 0 or 1")
        return LitWire(rest[0] == "1"), rest[2:]
    if op in ("and", "xor"):
        left, rest = _parse_tokens(rest)
        right, rest = _parse_tokens(rest)
        if not rest or rest[0] != ")":
            raise ConfigError(f"({op} ...) takes exactly two sub-circuits")
        gate = AndGate if op == "and" else XorGate
        return gate(left, right), rest[1:]
    raise ConfigError(f"unknown circuit operator {op!r}")


def circuit_to_text(circuit: Circuit) -> str:
    if isinstance(circuit, InputWire):
        return f"(in {circuit.owner})"
    if isinstance(circuit, LitWire):
        return f"(lit {1 if circuit.bit else 0})"
    op = "and" if isinstance(circuit, AndGate) else "xor"
    return f"({op} {circuit_to_text(circuit.left)} {circuit_to_text(circuit.right)})"


# -- choreographies ----------------------------------------------------------


def secret_share(b: OperatorBundle, p, v) -> Faceted:
    """Owner splits its bit into one share per census member and scatters
    them; afterwards each member holds only its own share."""
    names = b.census.names
    keys = b.census

    def split(un):
        shares = gen_shares(len(names), bool(un(v)), un.rng)
        return Quire(keys, dict(zip(names, shares)))

    return b.scatter(p, b.everyone(), b.locally(p, split))


def _digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _mask_bit(key_hex: str) -> bool:
    return bool(_digest(key_hex.encode("ascii") + b"/mask")[0] & 1)


def _gen_keys(select: bool, rng) -> tuple[str, str, str]:
    # Both pads are drawn in a fixed order so the published digests do not
    # depend on the select bit.
    pad0 = rng.randbytes(32)
    pad1 = rng.randbytes(32)
    kept = pad1 if select else pad0
    return (_digest(pad0).hex(), _digest(pad1).hex(), kept.hex())


def _encrypt(keys: tuple[str, str], pair: tuple[bool, bool]) -> tuple[bool, bool]:
    first, second = pair
    return (bool(first) != _mask_bit(keys[0]), bool(second) != _mask_bit(keys[1]))


def _decrypt(keys: tuple[str, str, str], select: bool, cipher: tuple[bool, bool]) -> bool:
    key_hex = _digest(bytes.fromhex(keys[2])).hex()
    chosen = cipher[1] if select else cipher[0]
    return bool(chosen) != _mask_bit(key_hex)


@cache
def _each_alone(names: tuple[str, ...]) -> dict[str, Any]:
    """The witness of each census member alone in the census; built once per
    census and only read."""
    census = census_of(names)
    return {n: subset(census_of([n]), census) for n in names}


def ot2(b: OperatorBundle, sender, receiver, pair, select):
    """1-of-2 oblivious transfer; the census must be exactly the two parties.

    Two messages: the receiver's published keys to the sender, then both
    ciphertext bits back.  The receiver learns pair[0] if the select bit is
    false, pair[1] if true.
    """
    names = b.census.names
    if len(names) != 2 or {sender.location, receiver.location} != set(names):
        raise ContractError("oblivious transfer is a two-party protocol")
    alone = _each_alone(names)

    keys = b.locally(receiver, lambda un: _gen_keys(bool(un(select)), un.rng))
    published = b.locally(receiver, lambda un: un(keys)[:2])
    at_sender = b.multicast(receiver, alone[sender.location], published)
    cipher = b.locally(sender, lambda un: _encrypt(un(at_sender), un(pair)))
    at_receiver = b.multicast(sender, alone[receiver.location], cipher)
    return b.locally(
        receiver, lambda un: _decrypt(un(keys), bool(un(select)), un(at_receiver))
    )


@cache
def _transfer_witnesses(names: tuple[str, ...]) -> dict[tuple[str, str], tuple]:
    """For each ordered pair (i, j) of distinct census members: the enclave
    witness of {i, j} in the census, the outer and inner witnesses that
    flatten the transfer's result down to j, and the membership witnesses of
    i and j in {i, j}.  Built once per census; the table is only read."""
    census = census_of(names)
    table = {}
    for i in names:
        for j in names:
            if i != j:
                two = subset(census_of([i, j]), census)
                j_only = census_of([j])
                table[(i, j)] = (two, subset(j_only, two.sub), subset(j_only, j_only),
                                 *member_witnesses(two.sub))
    return table


def f_and(b: OperatorBundle, u: Faceted, v: Faceted) -> Faceted:
    """And-gate on xor-shared bits via pairwise oblivious transfer.

    Every party draws a random mask row; for each ordered pair (i, j), i != j,
    an enclaved transfer gives j the bit a_ij xor (u_i and v_j).  Party i's
    output share folds [u_i and v_i, its received bits, its mask row with the
    self entry zeroed]; the masks cancel pairwise and the cross terms complete
    the product.
    """
    census = b.census
    if not isinstance(u, Faceted) or u.owners is not census:
        raise ContractError("left shares must be owned by the whole census")
    if not isinstance(v, Faceted) or v.owners is not census:
        raise ContractError("right shares must be owned by the whole census")
    names = census.names
    witnesses = _transfer_witnesses(names)
    alone = _each_alone(names)

    mask_rows = b.parallel(
        b.everyone(),
        lambda loc, un: Quire(census, {n: bool(un.rng.getrandbits(1)) for n in names}),
    )

    def per_receiver(j_w):
        j_name = j_w.location

        def collect(bb: OperatorBundle):
            def per_sender(i_w):
                i_name = i_w.location
                if i_name == j_name:
                    return lambda b2: b2.locally(j_w, lambda un: False)
                two, outer, inner, i_in, j_in = witnesses[(i_name, j_name)]

                def transfer(b2: OperatorBundle):
                    def offer(un):
                        mask = un(mask_rows)[j_name]
                        return (mask, mask != bool(un(u)))

                    pair = b2.locally(i_w, offer)
                    choice = b2.locally(j_w, lambda un: bool(un(v)))
                    nested = b2.enclave(two, lambda b3: ot2(b3, i_in, j_in, pair, choice))
                    return b2.flatten(outer, inner, nested)

                return transfer

            received = bb.fanin(bb.everyone(), alone[j_name], per_sender)
            return bb.locally(j_w, lambda un: xor_fold(un(received).values()))

        return collect

    cross = b.fanout(b.everyone(), per_receiver)

    def combine(loc, un):
        row = un(mask_rows)
        off_row = [bit for name, bit in row.items() if name != loc]
        return xor_fold([bool(un(u)) and bool(un(v)), un(cross), *off_row])

    return b.parallel(b.everyone(), combine)


def gmw(b: OperatorBundle, circuit: Circuit) -> Faceted:
    """Structural recursion over the circuit, yielding xor shares of its value."""
    for owner in set(circuit_input_owners(circuit)):
        if owner not in b.census:
            raise NotAMemberError(f"input wire owner {owner!r} is not in the census")
    return _gmw(b, circuit)


def _gmw(b: OperatorBundle, circuit: Circuit) -> Faceted:
    if isinstance(circuit, InputWire):
        p = b.member(circuit.owner)
        value = b.locally(p, lambda un: bool(un.next_input()))
        return secret_share(b, p, value)
    if isinstance(circuit, LitWire):
        first = b.census.names[0]

        def per(q_w):
            bit = circuit.bit if q_w.location == first else False
            return lambda bb: bb.locally(q_w, lambda un: bit)

        return b.fanout(b.everyone(), per)
    if isinstance(circuit, XorGate):
        left = _gmw(b, circuit.left)
        right = _gmw(b, circuit.right)
        return b.parallel(b.everyone(), lambda loc, un: un(left) != un(right))
    if isinstance(circuit, AndGate):
        left = _gmw(b, circuit.left)
        right = _gmw(b, circuit.right)
        return f_and(b, left, right)
    raise ContractError(f"not a circuit: {circuit!r}")


def reveal(b: OperatorBundle, shares: Faceted) -> bool:
    """Gather every share to everyone and fold; each party learns the value."""
    gathered = b.gather(b.everyone(), b.everyone(), shares)
    return xor_fold(b.naked(gathered).values())


def mpc(b: OperatorBundle, circuit: Circuit) -> bool:
    """Whole protocol: share inputs, evaluate the circuit, reveal the output."""
    return reveal(b, gmw(b, circuit))


# -- circuit enumeration (used by the oracle suites) -------------------------


def leaf_circuits(parties: tuple[str, ...]) -> list[Circuit]:
    return [LitWire(False), LitWire(True)] + [InputWire(p) for p in parties]


def circuits_up_to(depth: int, parties: tuple[str, ...]) -> list[Circuit]:
    """Every circuit of gate-depth at most `depth` over the leaf basis."""
    leaves = leaf_circuits(parties)
    level: list[Circuit] = list(leaves)
    for _ in range(depth):
        level = leaves + [
            gate(l, r) for gate in (AndGate, XorGate) for l in level for r in level
        ]
    return level


def sample_circuit(depth: int, parties: tuple[str, ...], rng) -> Circuit:
    """A random circuit of gate-depth exactly `depth`."""
    leaves = leaf_circuits(parties)
    if depth == 0:
        return rng.choice(leaves)

    def any_depth(d: int) -> Circuit:
        if d == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        return rng.choice((AndGate, XorGate))(any_depth(d - 1), any_depth(d - 1))

    deep = sample_circuit(depth - 1, parties, rng)
    shallow = any_depth(depth - 1)
    gate = rng.choice((AndGate, XorGate))
    return gate(deep, shallow) if rng.random() < 0.5 else gate(shallow, deep)


def input_assignments(circuit: Circuit, parties: tuple[str, ...]):
    """All per-party input streams for the circuit's input wires, in
    evaluation order."""
    owners = circuit_input_owners(circuit)
    total = len(owners)
    for mask in range(1 << total):
        streams: dict[str, list[bool]] = {p: [] for p in parties}
        for position, owner in enumerate(owners):
            streams[owner].append(bool((mask >> position) & 1))
        yield streams
