"""Message transports.

Both implementations satisfy one delivery contract: `send(to, body)` is
non-blocking and buffered, `recv(frm)` blocks until the next in-order message
from that exact sender, delivery is per-(sender, receiver) FIFO with no loss
and no duplication, and failures surface as TransportError rather than silent
drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol


@dataclass(slots=True)
class MessageRecord:
    """One message as seen by the instrumentation.

    `t_send` is the logical timestamp serialized in reports.  The oracle and
    the simulator also stamp delivery and consumption times, which the
    consumption-order half of `check_fifo` uses; TCP runs leave them None,
    because the TCP transport enforces per-pair order itself on arrival.
    """

    sender: str
    receiver: str
    nbytes: int
    seq: int
    t_send: int
    t_deliver: int | None = None
    t_recv: int | None = None


class Transport(Protocol):
    def send(self, to: str, body: bytes) -> None: ...

    def recv(self, frm: str) -> bytes: ...


from .sim import SimNet  # noqa: E402
from .tcp import TcpTransport, free_port  # noqa: E402

__all__ = [
    "MessageRecord",
    "Transport",
    "SimNet",
    "TcpTransport",
    "free_port",
]
