"""TCP transport with a fixed wire format.

Frame: 4-byte big-endian payload length, then the payload, which is the
portable encoding of the 3-element sequence [sender-name, seq, body-text]
where body-text is the message bytes decoded as latin-1 (the portable grammar
has no raw-bytes tag).  Frames above 64 MiB are rejected.

One TCP connection per ordered (sender -> receiver) pair, established lazily
by the sender; the receiver accepts and learns the sender's identity from the
first envelope, inheriting per-pair FIFO from the stream.  `seq` is verified
on arrival, so a gap or duplicate surfaces as TransportError instead of silent
corruption.  Once a named sender's connection ends, the next receive from
that sender after its delivered frames raises TransportError at once instead
of waiting out the receive timeout.  No retries, no TLS, no partial-failure
tolerance.
"""

import queue
import socket
import struct
import threading
import time

from ..errors import DecodeError, TransportError
from ..portable import decode, encode

FRAME_LIMIT = 64 * 1024 * 1024
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
        or not isinstance(value[1], int)
        or not isinstance(value[2], str)
    ):
        raise DecodeError("envelope is not a [sender, seq, body] triple")
    return value[0], value[1], value[2].encode("latin-1")


def write_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > FRAME_LIMIT:
        raise TransportError(f"frame of {len(payload)} bytes exceeds the 64 MiB limit")
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(n - got)
        except OSError as exc:
            raise TransportError(f"read failed: {exc}") from exc
        if not chunk:
            if got == 0:
                return None
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> bytes | None:
    """Read one frame; None on clean end of stream."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > FRAME_LIMIT:
        raise DecodeError(f"frame length {length} exceeds the 64 MiB limit")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise TransportError("connection closed mid-frame")
    return payload


def _parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise TransportError(f"bad address {text!r}, expected host:port")
    try:
        return host, int(port)
    except ValueError:
        raise TransportError(f"bad port in address {text!r}") from None


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
        self.self_name = self_name
        self._addresses = {n: _parse_address(a) for n, a in address_book.items()}
        self._recv_timeout = recv_timeout
        self._connect_timeout = connect_timeout
        self._queues: dict[str, queue.Queue] = {}
        self._queues_lock = threading.Lock()
        self._out: dict[str, socket.socket] = {}
        self._seqs: dict[str, int] = {}
        self._expected: dict[str, int] = {}
        self._fault: BaseException | None = None
        self._closed = False

        host, port = self._addresses[self_name]
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.port = self._listener.getsockname()[1]
        self._acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        self._acceptor.start()

    def _queue_for(self, name: str) -> queue.Queue:
        with self._queues_lock:
            if name not in self._queues:
                self._queues[name] = queue.Queue()
            return self._queues[name]

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._read_loop, args=(conn,), daemon=True).start()

    def _read_loop(self, conn: socket.socket) -> None:
        sender = None
        try:
            while True:
                payload = read_frame(conn)
                if payload is None:
                    if sender is not None:
                        raise TransportError(f"{sender!r} closed the connection")
                    return
                sender, seq, body = unpack_envelope(payload)
                expected = self._expected.get(sender, 0)
                if seq != expected:
                    raise TransportError(
                        f"out-of-order message from {sender!r}: seq {seq}, expected {expected}"
                    )
                self._expected[sender] = expected + 1
                self._queue_for(sender).put(("ok", body))
        except BaseException as exc:
            if sender is not None:
                self._queue_for(sender).put(("err", exc))
            else:
                self._fault = exc
        finally:
            conn.close()

    def send(self, to: str, body: bytes) -> None:
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
                return socket.create_connection((host, port), timeout=2.0)
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise TransportError(f"cannot connect to {to!r} at {host}:{port}: {exc}") from exc
                time.sleep(0.05)

    def recv(self, frm: str) -> bytes:
        q = self._queue_for(frm)
        deadline = time.monotonic() + self._recv_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(f"timed out waiting for a message from {frm!r}")
            try:
                kind, item = q.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                if self._fault is not None:
                    raise TransportError(f"receive failed: {self._fault}") from self._fault
                continue
            if kind == "err":
                raise TransportError(f"receive from {frm!r} failed: {item}") from item
            return item

    def close(self) -> None:
        """Close every socket and join the acceptor.

        Closing a listener does not wake a thread blocked in `accept()`;
        shutting it down first does.  Raises TransportError if the acceptor
        is still alive afterwards.
        """
        self._closed = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for sock in self._out.values():
            try:
                sock.close()
            except OSError:
                pass
        self._acceptor.join(timeout=_JOIN_TIMEOUT_S)
        if self._acceptor.is_alive():
            raise TransportError("acceptor thread still alive after close")
