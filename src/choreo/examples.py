"""Named, runnable protocol instances for the CLI and the conformance suites.

Each builder takes its example's options as keyword parameters with their
defaults, and returns a concrete (choreography, census, args, inputs) bundle
ready for any of the three run modes.  Its signature is the one statement of
which options an example takes: `build_example` rejects any other.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError
from .locations import Census, census_of
from .ops import Choreography, OperatorBundle
from .protocols import gmw as gmw_mod
from .protocols import kvs as kvs_mod
from .protocols import lottery as lottery_mod
from .protocols.kvs import Get, KvsArgs, Put
from .protocols.lottery import FIELD_MODULUS, Tamper


@dataclass
class ExampleRun:
    name: str
    choreography: Choreography
    census: Census
    args: Any
    inputs: dict[str, list] = field(default_factory=dict)


DEFAULT_SCRIPT = [Put("k", 5), Get("k")]
DEFAULT_CIRCUIT = gmw_mod.XorGate(
    gmw_mod.AndGate(gmw_mod.InputWire("p1"), gmw_mod.InputWire("p2")),
    gmw_mod.LitWire(True),
)


_TRIO = ("client", "primary", "backup")


def _require_known(flag: str, given, names) -> None:
    """Rejects location names given under `flag` that are not among `names`."""
    unknown = [n for n in given if n not in names]
    if unknown:
        raise ConfigError(f"{flag} names unknown locations {unknown}; known: {list(names)}")


def _kvs(name: str, proc, script=None, names=_TRIO, **faults) -> ExampleRun:
    script = script or list(DEFAULT_SCRIPT)
    args = KvsArgs(
        n_requests=len(script), **{k: frozenset(v) for k, v in faults.items()}
    )
    return ExampleRun(
        name=name,
        choreography=Choreography(proc),
        census=census_of(names),
        args=args,
        inputs={"client": list(script)},
    )


def _build_kvs_poly(script=None, backups=2, fail_backups=()) -> ExampleRun:
    if backups < 0:
        raise ConfigError("--backups must be >= 0")
    names = ["client", "primary"] + [f"backup{i}" for i in range(1, backups + 1)]
    _require_known("--fail-backups", fail_backups, names[2:])
    return _kvs("kvs-poly", kvs_mod.kvs_poly, script, names, fail_backups=fail_backups)


def _build_gmw(circuit=DEFAULT_CIRCUIT, parties=None, inputs=None) -> ExampleRun:
    owners = gmw_mod.circuit_input_owners(circuit)
    if parties is not None:
        if parties < 1:
            raise ConfigError("--parties must be >= 1")
        names = [f"p{i}" for i in range(1, parties + 1)]
        _require_known("--inputs", inputs or (), names)
    else:
        seen = list(dict.fromkeys(owners)) or ["p1"]
        names = sorted(seen) if inputs is None else sorted(set(seen) | set(inputs))
    if inputs is None:
        inputs = {}
        for owner in owners:
            inputs.setdefault(owner, []).append(False)
    missing = [o for o in owners if o not in names]
    if missing:
        raise ConfigError(f"circuit uses parties outside the census: {missing}")
    return ExampleRun(
        name="gmw",
        choreography=Choreography(gmw_mod.mpc),
        census=census_of(names),
        args=circuit,
        inputs={k: list(v) for k, v in inputs.items()},
    )


@dataclass(frozen=True)
class LotteryArgs:
    servers: tuple[str, ...]
    clients: tuple[str, ...]
    analyst: str = "analyst"
    tamper: Tamper | None = None


def _lottery_proc(b: OperatorBundle, args: LotteryArgs):
    servers = census_of(args.servers)
    clients = census_of(args.clients)
    secrets = b.parallel(
        b.subset(args.clients), lambda loc, un: int(un.next_input()) % FIELD_MODULUS
    )
    return lottery_mod.lottery(
        b,
        servers,
        clients,
        args.analyst,
        secrets,
        tamper=args.tamper,
    )


def _build_lottery(servers=3, clients=4, inputs=None, tamper=None) -> ExampleRun:
    if servers < 1 or clients < 1:
        raise ConfigError("the lottery needs at least one server and one client")
    server_names = tuple(f"server{i}" for i in range(1, servers + 1))
    client_names = tuple(f"client{i}" for i in range(1, clients + 1))
    secrets = inputs or {}
    _require_known("--inputs", secrets, client_names)
    _require_known("--tamper", [tamper.server] if tamper else (), server_names)
    inputs = {
        name: list(secrets.get(name) or [(1000 + 13 * i) % FIELD_MODULUS])
        for i, name in enumerate(client_names)
    }
    args = LotteryArgs(servers=server_names, clients=client_names, tamper=tamper)
    return ExampleRun(
        name="lottery",
        choreography=Choreography(_lottery_proc),
        census=census_of([args.analyst, *server_names, *client_names]),
        args=args,
        inputs=inputs,
    )


def _broken_proc(b: OperatorBundle, args) -> None:
    # Deliberate negative control: the second location blocks on a receive
    # that the first location never performs a matching send for.  Reaches
    # past the operator bundle on purpose; only projected modes can run it.
    state = getattr(b, "_state", None)
    if state is None or not hasattr(state, "self_name"):
        raise ConfigError("the broken example runs only in simulate/endpoint mode")
    first, second = b.census.names[0], b.census.names[1]
    if state.self_name == second:
        state.recv(first)
    return None


def _build_broken() -> ExampleRun:
    return ExampleRun(
        name="broken-pair",
        choreography=Choreography(_broken_proc),
        census=census_of(["one", "two"]),
        args=None,
    )


BUILDERS = {
    "kvs-broadcast": lambda script=None: _kvs(
        "kvs-broadcast", kvs_mod.kvs_broadcast, script
    ),
    "kvs-enclave": lambda script=None: _kvs("kvs-enclave", kvs_mod.kvs_enclave, script),
    "kvs-error-handling": lambda script=None, fail_puts=(): _kvs(
        "kvs-error-handling", kvs_mod.kvs_error_handling, script, fail_puts=fail_puts
    ),
    "kvs-poly": _build_kvs_poly,
    "gmw": _build_gmw,
    "lottery": _build_lottery,
    "broken-pair": _build_broken,
}


def example_names() -> list[str]:
    return sorted(BUILDERS)


def build_example(name: str, **options) -> ExampleRun:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown example {name!r}; choose from {', '.join(example_names())}"
        ) from None
    takes = inspect.signature(builder).parameters
    for option in options:
        if option not in takes:
            raise ConfigError(
                f"example {name!r} takes no option {option!r}; "
                f"it takes: {', '.join(takes) or 'none'}"
            )
    return builder(**options)
