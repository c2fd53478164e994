"""TCP transport with a fixed wire format.

Frame: 4-byte big-endian payload length, then the payload, which is the
portable encoding of the 3-element sequence [sender-name, seq, body-text]
where body-text is the message bytes decoded as latin-1 (the portable grammar
has no raw-bytes tag).  Frames above 64 MiB are rejected.

One TCP connection per ordered (sender -> receiver) pair, established lazily
by the sender; the receiver learns the sender's identity from the first
envelope, inheriting per-pair FIFO from the stream.  `seq` is verified as
each frame is received, so a gap or duplicate surfaces as TransportError
instead of silent corruption.  A send blocked by a receiver that is not
reading waits up to the receive timeout, then raises TransportError.

Receive path and threads: `recv(frm)` reads frames straight from `frm`'s
connection on the caller's thread.  Bytes read but not yet delivered stay in
that connection's buffer, and the socket waits at most until the receive's
deadline, so a timeout in the middle of a frame loses nothing and is not a
fault.  The transport's own threads are the acceptor and, per accepted
connection, a short-lived namer that reads the first frame (leaving it in
the buffer), registers the connection for the sender it names and ends.
A silent connection thus holds up only its own namer.  `close()` wakes and
joins every one of these threads, and fails every receive, pending or later,
and every later send at once.

Every fault surfaces at once instead of after the receive timeout, and every
fault is permanent.  Once a named sender's connection ends, or sends a bad
frame (garbage, a gap or duplicate in `seq`, another sender's name), every
receive from that sender after its delivered frames raises TransportError;
so does a second connection naming that sender.  A connection that fails
before naming its sender, or that names a location outside the address book,
fails every receive from every peer that is pending or starts once the fault
is seen, including frames of other peers that arrived but were not yet
received: only frames that `recv` returned count as delivered.  A receive
from a location outside the address book raises at once.  Set-up fails with
TransportError, holding no socket, when a timeout is not positive or is
above `threading.TIMEOUT_MAX` (the most a socket accepts), a book entry's
port is outside 0-65535 or the own address cannot be bound.  No retries, no
TLS, no partial-failure tolerance.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

from ..errors import DecodeError, TransportError
from ..portable import decode, encode

FRAME_LIMIT = 64 * 1024 * 1024
_HEADER = struct.Struct(">I")
_CHUNK = 64 * 1024
_JOIN_TIMEOUT_S = 5.0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def pack_envelope(sender: str, seq: int, body: bytes) -> bytes:
    return encode([sender, seq, body.decode("latin-1")])


def unpack_envelope(payload: bytes) -> tuple[str, int, bytes]:
    value = decode(payload)
    if (
        not isinstance(value, list)
        or len(value) != 3
        or not isinstance(value[0], str)
        or type(value[1]) is not int
        or not isinstance(value[2], str)
    ):
        raise DecodeError("envelope is not a [sender, seq, body] triple")
    try:
        body = value[2].encode("latin-1")
    except UnicodeEncodeError as exc:
        raise DecodeError(f"envelope body is not latin-1 text: {exc}") from None
    return value[0], value[1], body


def write_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > FRAME_LIMIT:
        raise TransportError(f"frame of {len(payload)} bytes exceeds the 64 MiB limit")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _frame_end(buf: bytearray) -> int:
    """Where the first frame in `buf` ends: 4 while its header is incomplete,
    else 4 plus the payload length the header announces."""
    if len(buf) < 4:
        return 4
    (length,) = _HEADER.unpack_from(buf)
    if length > FRAME_LIMIT:
        raise DecodeError(f"frame length {length} exceeds the 64 MiB limit")
    return 4 + length


def _take_frame(buf: bytearray) -> bytes:
    """Remove the whole frame at the front of `buf` and return its payload."""
    end = _frame_end(buf)
    payload = bytes(buf[4:end])
    del buf[:end]
    return payload


def _fill(sock: socket.socket, buf: bytearray, deadline: float | None = None) -> bool:
    """Read until `buf` holds a whole frame.  With a deadline, each call
    waits only until then, and TimeoutError leaves every byte read so far in
    `buf`.  False on a clean end of stream with `buf` empty."""
    while len(buf) < (end := _frame_end(buf)):
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError
            sock.settimeout(remaining)
        try:
            chunk = sock.recv(max(_CHUNK, end - len(buf)))
        except TimeoutError:
            raise  # not a fault of the connection
        except OSError as exc:
            raise TransportError(f"read failed: {exc}") from exc
        if not chunk:
            if not buf:
                return False
            raise TransportError("connection closed mid-frame")
        buf += chunk
    return True


def _shut(sock: socket.socket) -> None:
    """Wake every thread blocked on `sock`, which may be closed already."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def _parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise TransportError(f"bad address {text!r}, expected host:port")
    if not port.isdecimal() or int(port) > 65535:
        raise TransportError(f"bad port in address {text!r}")
    return host, int(port)


class _Inbound:
    """The receive side of one peer: its named connection once there is one,
    the bytes read from it but not yet delivered, the seq it must send next,
    and its permanent fault.  `lock` is held by a receive while it uses the
    socket, so `close` never closes it under a reader."""

    __slots__ = ("sock", "buf", "expected", "error", "lock")

    def __init__(self):
        self.sock = None
        self.buf = bytearray()
        self.expected = 0
        self.error = None
        self.lock = threading.Lock()


class TcpTransport:
    """Transport handle for one endpoint over real sockets."""

    def __init__(
        self,
        self_name: str,
        address_book: dict[str, str],
        recv_timeout: float = 30.0,
        connect_timeout: float = 10.0,
    ):
        if self_name not in address_book:
            raise TransportError(f"address book has no entry for {self_name!r}")
        if not (recv_timeout > 0 and connect_timeout > 0):
            raise TransportError("recv_timeout and connect_timeout must be positive")
        if max(recv_timeout, connect_timeout) > threading.TIMEOUT_MAX:
            raise TransportError(f"a timeout above {threading.TIMEOUT_MAX:.0f} s is too long for a socket")
        self.self_name = self_name
        self._addresses = {n: _parse_address(a) for n, a in address_book.items()}
        self._recv_timeout = recv_timeout
        self._connect_timeout = connect_timeout
        self._peers = {n: _Inbound() for n in self._addresses if n != self_name}
        self._out: dict[str, socket.socket] = {}
        self._seqs: dict[str, int] = {}
        # Guards naming, faults and closing; a receive waits on it for its
        # peer to connect.
        self._cv = threading.Condition()
        self._closed = False
        self._unnamed: set[socket.socket] = set()
        self._namers: list[threading.Thread] = []

        host, port = self._addresses[self_name]
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen()
        except OSError as exc:
            self._listener.close()
            raise TransportError(f"cannot listen as {self_name!r} at {host}:{port}: {exc}") from exc
        self.port = self._listener.getsockname()[1]
        self._acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        self._acceptor.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._cv:
                if self._closed:
                    conn.close()
                    return
                self._unnamed.add(conn)
                namer = threading.Thread(target=self._name, args=(conn,), daemon=True)
                self._namers.append(namer)
            namer.start()

    def _name(self, conn: socket.socket) -> None:
        """Read `conn`'s first frame, leave it in the buffer and register the
        connection for the sender it names."""
        buf = bytearray()
        sender = fault = None
        try:
            if _fill(conn, buf):  # else closed before a byte: never a peer
                sender = unpack_envelope(bytes(buf[4 : _frame_end(buf)]))[0]
                if sender not in self._peers:
                    raise TransportError(f"frame from unknown sender {sender!r}")
        except Exception as exc:
            sender, fault = None, exc
        with self._cv:
            self._unnamed.discard(conn)
            peer = None if self._closed else self._peers.get(sender)
            if fault is not None and not self._closed:
                for other in self._peers.values():
                    self._fail(other, fault)
            elif peer is not None and peer.sock is None and peer.error is None:
                peer.buf, peer.sock = buf, conn
                self._cv.notify_all()
                return
            elif peer is not None:
                self._fail(peer, TransportError(f"a second connection from {sender!r}"))
        conn.close()

    def _fail(self, peer: _Inbound, exc: BaseException) -> None:
        """Make `exc` the peer's permanent fault unless it has one, and wake
        its receive (call with `_cv` held)."""
        if peer.error is None:
            peer.error = exc
        self._cv.notify_all()
        if peer.sock is not None:
            _shut(peer.sock)

    def send(self, to: str, body: bytes) -> None:
        if self._closed:
            raise TransportError(f"the transport of {self.self_name!r} is closed")
        if to == self.self_name:
            raise TransportError("self-sends are elided by the operators, not the transport")
        if to not in self._addresses:
            raise TransportError(f"address book has no entry for {to!r}")
        sock = self._out.get(to)
        if sock is None:
            sock = self._connect(to)
            self._out[to] = sock
        seq = self._seqs.get(to, 0)
        self._seqs[to] = seq + 1
        try:
            write_frame(sock, pack_envelope(self.self_name, seq, body))
        except OSError as exc:
            raise TransportError(f"send to {to!r} failed: {exc}") from exc

    def _connect(self, to: str) -> socket.socket:
        host, port = self._addresses[to]
        deadline = time.monotonic() + self._connect_timeout
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=2.0)
                sock.settimeout(self._recv_timeout)
                return sock
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise TransportError(f"cannot connect to {to!r} at {host}:{port}: {exc}") from exc
                time.sleep(0.05)

    def recv(self, frm: str) -> bytes:
        peer = self._peers.get(frm)
        if peer is None:
            raise TransportError(f"{frm!r} is not a peer of {self.self_name!r}")
        deadline = time.monotonic() + self._recv_timeout
        with peer.lock:
            try:
                if peer.sock is None:
                    with self._cv:
                        if not self._cv.wait_for(
                            lambda: peer.sock or peer.error, deadline - time.monotonic()
                        ):
                            raise TimeoutError
                if peer.error is None:
                    if not _fill(peer.sock, peer.buf, deadline):
                        raise TransportError(f"{frm!r} closed the connection")
                    sender, seq, body = unpack_envelope(_take_frame(peer.buf))
                    if sender != frm:
                        raise TransportError(f"frame from {sender!r} on the connection of {frm!r}")
                    if seq != peer.expected:
                        raise TransportError(
                            f"out-of-order message from {frm!r}: seq {seq}, expected {peer.expected}"
                        )
                    peer.expected = seq + 1
                    return body
            except TimeoutError:
                raise TransportError(f"timed out waiting for a message from {frm!r}") from None
            except Exception as exc:
                with self._cv:
                    self._fail(peer, exc)
            raise TransportError(f"receive from {frm!r} failed: {peer.error}") from peer.error

    def close(self) -> None:
        """Close every socket and join every thread this transport started.

        Every receive, pending or later, and every later send fails at once
        with "transport is closed".  Closing a socket does not wake a thread
        blocked in `accept()` or `recv()` on it; shutting it down first does.
        So the listener and each accepted connection are shut down, which
        ends the acceptor, every namer and every blocked receive even while
        their peers stay open.  Raises TransportError if one of those threads
        is still alive afterwards.
        """
        with self._cv:
            if not self._closed:
                self._closed = True  # from here on nothing joins _unnamed or _namers
                closed = TransportError(f"the transport of {self.self_name!r} is closed")
                for peer in self._peers.values():
                    peer.error = closed  # replaces any earlier fault
                    self._fail(peer, closed)
            for conn in self._unnamed:
                _shut(conn)
        _shut(self._listener)
        for sock in (self._listener, *self._out.values()):
            try:
                sock.close()
            except OSError:
                pass
        for thread in (self._acceptor, *self._namers):
            thread.join(timeout=_JOIN_TIMEOUT_S)
            if thread.is_alive():
                raise TransportError(f"thread {thread.name} still alive after close")
        for peer in self._peers.values():  # each receive was failed and woken above
            if peer.sock is not None:
                with peer.lock:
                    peer.sock.close()
