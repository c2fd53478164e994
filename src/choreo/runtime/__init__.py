"""Interpreters and run reports."""

from .central import CentralBundle, run_centralized
from .endpoint import EndpointBundle, project_and_run
from .report import (
    BranchRecord,
    EndpointLog,
    RunReport,
    ValueRecord,
    check_branch_agreement,
    check_fifo,
    check_value_agreement,
)
from .simulate import run_over_tcp, run_simulated
from .views import view, view_json

__all__ = [
    "CentralBundle",
    "EndpointBundle",
    "run_centralized",
    "project_and_run",
    "run_simulated",
    "run_over_tcp",
    "RunReport",
    "EndpointLog",
    "BranchRecord",
    "ValueRecord",
    "check_branch_agreement",
    "check_fifo",
    "check_value_agreement",
    "view",
    "view_json",
]
