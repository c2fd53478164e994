"""Primary/backup key-value store, in four variants.

All variants serve the same request language: `Get key` returns the stored
value (0 for an absent key) and a successful `Put key value` returns 0.  The
broadcast variant shares the branch decision with the whole census, which
reaches the client redundantly; the enclaved variant narrows the decision to
the servers and saves exactly one message per request.  The error-handling
variant persists the backup's status as a server-owned value so a second
enclave can branch on it without any further communication.  The polymorphic
variant works for any number of backups, including zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ConfigError, ContractError
from ..locations import census_of, subset
from ..ops import OperatorBundle
from ..portable import Variant

TAG_GET = 0
TAG_PUT = 1


@dataclass(frozen=True)
class Get:
    key: str


@dataclass(frozen=True)
class Put:
    key: str
    value: int


Request = Get | Put


def to_wire(request: Request) -> Variant:
    if isinstance(request, Get):
        return Variant(TAG_GET, request.key)
    if isinstance(request, Put):
        return Variant(TAG_PUT, (request.key, request.value))
    raise ContractError(f"not a request: {request!r}")


def from_wire(value: Any) -> Request:
    if isinstance(value, Variant):
        if value.tag == TAG_GET and isinstance(value.value, str):
            return Get(value.value)
        if value.tag == TAG_PUT and isinstance(value.value, tuple):
            key, stored = value.value
            return Put(key, stored)
    raise ContractError(f"not a wire-format request: {value!r}")


def parse_script(text: str) -> list[Request]:
    """One request per line: `GET key` or `PUT key value`."""
    requests: list[Request] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0].upper() == "GET" and len(parts) == 2:
            requests.append(Get(parts[1]))
        elif parts[0].upper() == "PUT" and len(parts) == 3:
            try:
                requests.append(Put(parts[1], int(parts[2])))
            except ValueError:
                raise ConfigError(f"line {lineno}: bad PUT value {parts[2]!r}") from None
        else:
            raise ConfigError(f"line {lineno}: bad request {line!r}")
    return requests


def reference_responses(requests: list[Request]) -> list[int]:
    """Single-map model every variant's client-visible responses must match."""
    store: dict[str, int] = {}
    out = []
    for req in requests:
        if isinstance(req, Get):
            out.append(store.get(req.key, 0))
        else:
            store[req.key] = req.value
            out.append(0)
    return out


def handle_get(store: dict, key: str) -> int:
    return store.get(key, 0)


def handle_put(store: dict, key: str, value: int, fail: bool = False) -> int:
    if fail:
        return 1
    store[key] = value
    return 0


def handle_request(store: dict, req: Request) -> int:
    if isinstance(req, Get):
        return handle_get(store, req.key)
    return handle_put(store, req.key, req.value)


@dataclass(frozen=True)
class KvsArgs:
    n_requests: int
    fail_puts: frozenset = frozenset()  # request ordinals whose backup put fails
    fail_backups: frozenset = frozenset()  # backup names that fail puts (poly)


def kvs_broadcast(b: OperatorBundle, args: KvsArgs):
    """Branch decision shared by broadcasting to the whole census (the client
    redundantly included)."""
    client = b.member("client")
    primary = b.member("primary")
    backup = b.member("backup")
    primary_store = b.locally(primary, lambda un: {})
    backup_store = b.locally(backup, lambda un: {})
    responses = b.locally(client, lambda un: [])
    for _ in range(args.n_requests):
        request = b.locally(client, lambda un: to_wire(un.next_input()))
        request_p = b.multicast(client, b.subset(["primary"]), request)
        req = from_wire(b.broadcast(primary, request_p))
        if isinstance(req, Put):
            ack = b.locally(
                backup, lambda un: handle_put(un(backup_store), req.key, req.value)
            )
            b.multicast(backup, b.subset(["primary"]), ack)
        resp = b.locally(primary, lambda un: handle_request(un(primary_store), req))
        resp_c = b.multicast(primary, b.subset(["client"]), resp)
        b.locally(client, lambda un: un(responses).append(un(resp_c)))
    return {
        "responses": responses,
        "stores": {"primary": primary_store, "backup": backup_store},
    }


def kvs_enclave(b: OperatorBundle, args: KvsArgs):
    """Branch decision narrowed to the servers; the client stays silent
    between sending the request and receiving the response."""
    return _kvs_enclaved(b, args, error_handling=False)


def kvs_error_handling(b: OperatorBundle, args: KvsArgs):
    """Like kvs_enclave, but the backup's put status becomes a server-owned
    value that a second enclave branches on with zero additional messages."""
    return _kvs_enclaved(b, args, error_handling=True)


def _kvs_enclaved(b: OperatorBundle, args: KvsArgs, error_handling: bool):
    client = b.member("client")
    primary = b.member("primary")
    servers = b.subset(["primary", "backup"])
    primary_only = census_of(["primary"])
    primary_store = b.locally(primary, lambda un: {})
    backup_store = b.locally(b.member("backup"), lambda un: {})
    responses = b.locally(client, lambda un: [])
    for i in range(args.n_requests):
        request = b.locally(client, lambda un: to_wire(un.next_input()))
        request_p = b.multicast(client, b.subset(["primary"]), request)

        if not error_handling:

            def serve(eb: OperatorBundle):
                req = from_wire(eb.broadcast(eb.member("primary"), request_p))
                if isinstance(req, Put):
                    ack = eb.locally(
                        eb.member("backup"),
                        lambda un: handle_put(un(backup_store), req.key, req.value),
                    )
                    eb.multicast(eb.member("backup"), eb.subset(["primary"]), ack)
                return eb.locally(
                    eb.member("primary"),
                    lambda un: handle_request(un(primary_store), req),
                )

            wrapped = b.enclave(servers, serve)
        else:
            fail = i in args.fail_puts

            def report_status(eb: OperatorBundle):
                req_w = eb.broadcast(eb.member("primary"), request_p)
                req = from_wire(req_w)
                if isinstance(req, Put):
                    status = eb.locally(
                        eb.member("backup"),
                        lambda un: handle_put(un(backup_store), req.key, req.value, fail),
                    )
                    return (req_w, eb.broadcast(eb.member("backup"), status))
                return (req_w, 0)

            # (request, status) owned by both servers: the knowledge persists.
            info = b.enclave(servers, report_status)

            def follow_up(eb: OperatorBundle):
                req_w, status = eb.naked(info)  # no messages in this enclave
                req = from_wire(req_w)
                if status != 0:
                    return eb.locally(eb.member("primary"), lambda un: -1)
                return eb.locally(
                    eb.member("primary"),
                    lambda un: handle_request(un(primary_store), req),
                )

            wrapped = b.enclave(servers, follow_up)

        resp = b.flatten(
            subset(primary_only, servers.sub), subset(primary_only, primary_only), wrapped
        )
        resp_c = b.multicast(primary, b.subset(["client"]), resp)
        b.locally(client, lambda un: un(responses).append(un(resp_c)))
    return {
        "responses": responses,
        "stores": {"primary": primary_store, "backup": backup_store},
    }


def kvs_poly(b: OperatorBundle, args: KvsArgs):
    """Primary plus any number of backups (including zero).

    A put is applied at the primary only if every backup reported success;
    otherwise the client sees -1 and the primary store is left unchanged.
    """
    client = b.member("client")
    primary = b.member("primary")
    backup_names = [n for n in b.census.names if n not in ("client", "primary")]
    servers = b.subset(["primary", *backup_names])
    primary_only = census_of(["primary"])
    primary_store = b.locally(primary, lambda un: {})
    backup_stores = b.parallel(b.subset(backup_names), lambda loc, un: {})
    responses = b.locally(client, lambda un: [])
    for _ in range(args.n_requests):
        request = b.locally(client, lambda un: to_wire(un.next_input()))
        request_p = b.multicast(client, b.subset(["primary"]), request)

        def serve(eb: OperatorBundle):
            req = from_wire(eb.broadcast(eb.member("primary"), request_p))
            if isinstance(req, Put):
                backups = eb.subset(backup_names)
                oks = eb.parallel(
                    backups,
                    lambda loc, un: handle_put(
                        un(backup_stores), req.key, req.value,
                        fail=loc in args.fail_backups,
                    ),
                )
                gathered = eb.gather(backups, eb.subset(["primary"]), oks)

                def put_or_reject(un):
                    if all(ok == 0 for ok in un(gathered).values()):
                        return handle_put(un(primary_store), req.key, req.value)
                    return -1

                return eb.locally(eb.member("primary"), put_or_reject)
            return eb.locally(
                eb.member("primary"), lambda un: handle_get(un(primary_store), req.key)
            )

        wrapped = b.enclave(servers, serve)
        resp = b.flatten(
            subset(primary_only, servers.sub), subset(primary_only, primary_only), wrapped
        )
        resp_c = b.multicast(primary, b.subset(["client"]), resp)
        b.locally(client, lambda un: un(responses).append(un(resp_c)))
    return {
        "responses": responses,
        "stores": {"primary": primary_store, "backups": backup_stores},
    }
