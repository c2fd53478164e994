"""Choreographic programming runtime.

Write a distributed protocol once as a global program over an explicit census;
run it per endpoint by injecting endpoint-specific operator implementations,
in one process against the centralized oracle, under the deterministic network
simulator, or over TCP.
"""

from . import errors
from .located import ABSENT, Faceted, MultiplyLocated, Quire
from .locations import (
    EMPTY,
    Census,
    MembershipWitness,
    SubsetWitness,
    census_of,
    compose,
    member,
    subset,
)
from .ops import Choreography, OperatorBundle, Unwrapper
from .portable import Variant, decode, encode
from .runtime import (
    RunReport,
    check_value_agreement,
    project_and_run,
    run_centralized,
    run_over_tcp,
    run_simulated,
)
from .transport import SimNet, TcpTransport

__version__ = "0.1.0"

__all__ = [
    "ABSENT",
    "Census",
    "Choreography",
    "EMPTY",
    "Faceted",
    "MembershipWitness",
    "MultiplyLocated",
    "OperatorBundle",
    "Quire",
    "RunReport",
    "SimNet",
    "SubsetWitness",
    "TcpTransport",
    "Unwrapper",
    "Variant",
    "census_of",
    "check_value_agreement",
    "compose",
    "decode",
    "encode",
    "errors",
    "member",
    "project_and_run",
    "run_centralized",
    "run_over_tcp",
    "run_simulated",
    "subset",
]
