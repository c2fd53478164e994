"""Commit-reveal lottery over a prime field.

Clients additively secret-share their field-element secrets to the servers.
Each server draws a random index contribution and a salt, publishes a
commitment digest, and only after holding everyone's commitments opens first
the salts and then the draws.  Every server verifies every opened pair against
its commitment; the winning client index is the field sum of the draws modulo
the client count, and the servers forward that client's shares to the analyst,
who reconstructs the one chosen secret.  The commitment round is what stops
the last server from steering the index: by the time anyone opens, every draw
is pinned down.

The three openings are `gather` rounds among the servers, and the forward is
a `gather` from the servers to the analyst.  The `Tamper` test hook perturbs
one server's value in a local step before the round that opens it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..errors import CommitmentFailed, ContractError
from ..located import Faceted
from ..locations import Census, compose
from ..ops import OperatorBundle
from ..portable import encode

FIELD_MODULUS = 999_983


def field_sub(a: int, b: int) -> int:
    return (a - b) % FIELD_MODULUS


def field_rand(rng) -> int:
    return rng.randrange(FIELD_MODULUS)


def commit(draw: int, salt: int) -> bytes:
    """32-byte digest of the canonical encoding of the (draw, salt) pair."""
    return hashlib.sha256(encode((draw, salt))).digest()


def verify(commitment: bytes, draw: int, salt: int) -> bool:
    return commit(draw, salt) == commitment


def winning_index(draws, n_clients: int) -> int:
    """Field-sum the servers' draws, then reduce modulo the client count."""
    return sum(draws) % FIELD_MODULUS % n_clients


@dataclass(frozen=True)
class Tamper:
    """Test hook: the named server opens a perturbed value after committing."""

    server: str
    field: str  # "draw" | "salt"


def lottery(
    b: OperatorBundle,
    servers: Census,
    clients: Census,
    analyst: str,
    secrets: Faceted,
    draw_range: int | None = None,
    tamper: Tamper | None = None,
):
    """Reveal one randomly selected client secret to the analyst.

    Returns the reconstructed secret located at the analyst.  A server whose
    commitment check fails raises CommitmentFailed, aborting that endpoint.
    """
    names = set(b.census.names)
    groups = [analyst, *servers.names, *clients.names]
    if len(set(groups)) != len(groups):
        raise ContractError("analyst, servers, and clients must be disjoint")
    if not set(groups) <= names:
        raise ContractError("lottery participants must belong to the census")
    if len(servers) < 1 or len(clients) < 1:
        raise ContractError("need at least one server and one client")
    if not isinstance(secrets, Faceted) or secrets.owners is not clients:
        raise ContractError("secrets must be faceted over the clients")

    servers_sub = b.subset(servers)
    clients_sub = b.subset(clients)
    server_names = servers.names
    if draw_range is None:
        draw_range = 8 * len(clients)

    # Clients split their secrets additively; the last share makes the sum.
    def split(loc, un):
        free = [field_rand(un.rng) for _ in range(len(server_names) - 1)]
        last = field_sub(un(secrets) % FIELD_MODULUS, sum(free))
        return dict(zip(server_names, [*free, last]))

    share_maps = b.parallel(clients_sub, split)

    def per_server(s_in_servers):
        s = compose(s_in_servers, servers_sub)
        s_name = s.location

        def collect(bb: OperatorBundle):
            def per_client(c_in_clients):
                c = compose(c_in_clients, clients_sub)

                def send_share(b2: OperatorBundle):
                    share = b2.locally(c, lambda un: un(share_maps)[s_name])
                    return b2.multicast(c, b2.subset([s_name]), share)

                return send_share

            return bb.fanin(clients_sub, bb.subset([s_name]), per_client)

        return collect

    held_shares = b.fanout(servers_sub, per_server)

    draws = b.parallel(servers_sub, lambda loc, un: un.rng.randrange(draw_range))
    salts = b.parallel(servers_sub, lambda loc, un: un.rng.randrange(1 << 18, 1 << 20))
    commitments = b.parallel(
        servers_sub, lambda loc, un: commit(un(draws), un(salts)).hex()
    )

    # All commitments circulate before anyone opens anything.
    opened_commitments = b.gather(servers_sub, servers_sub, commitments)
    salts = _tampered(b, servers_sub, salts, tamper, "salt")
    opened_salts = b.gather(servers_sub, servers_sub, salts)
    draws = _tampered(b, servers_sub, draws, tamper, "draw")
    opened_draws = b.gather(servers_sub, servers_sub, draws)

    def check(loc, un):
        published = un(opened_commitments)
        opened_d = un(opened_draws)
        opened_s = un(opened_salts)
        for name in server_names:
            if not verify(bytes.fromhex(published[name]), opened_d[name], opened_s[name]):
                raise CommitmentFailed(f"commitment of {name!r} failed verification")
        return True

    b.parallel(servers_sub, check)

    winner = b.parallel(
        servers_sub, lambda loc, un: winning_index(un(opened_draws).values(), len(clients))
    )
    chosen = b.parallel(
        servers_sub, lambda loc, un: un(held_shares).values()[un(winner)]
    )

    winner_shares = b.gather(servers_sub, b.subset([analyst]), chosen)
    return b.locally(
        b.member(analyst), lambda un: sum(un(winner_shares).values()) % FIELD_MODULUS
    )


def _tampered(b: OperatorBundle, servers_sub, values: Faceted, tamper: Tamper | None,
              field: str) -> Faceted:
    """`values` with the tampering server's own value one off, when `tamper`
    targets `field`; otherwise `values` itself, and no operator runs."""
    if tamper is None or tamper.field != field:
        return values
    return b.parallel(
        servers_sub, lambda loc, un: un(values) + int(loc == tamper.server)
    )
