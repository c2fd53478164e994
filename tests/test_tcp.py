"""TCP transport: frame format, envelope codec, loopback delivery, and a full
protocol run over real sockets."""

import socket
import struct
import threading
import time

import pytest

from choreo import census_of, project_and_run, run_simulated
from choreo.errors import DecodeError, TransportError
from choreo.examples import build_example
from choreo.portable import encode
from choreo.transport import TcpTransport, free_port
from choreo.transport.tcp import (
    FRAME_LIMIT,
    pack_envelope,
    read_frame,
    unpack_envelope,
    write_frame,
)


def test_envelope_golden_bytes():
    # wire format is frozen: [sender, seq, body-as-latin1-text]
    body = bytes([0, 1, 254, 255])
    payload = pack_envelope("alice", 3, body)
    assert payload == encode(["alice", 3, body.decode("latin-1")])
    assert unpack_envelope(payload) == ("alice", 3, body)


def test_envelope_rejects_bad_shapes():
    with pytest.raises(DecodeError):
        unpack_envelope(encode(["alice", 3]))
    with pytest.raises(DecodeError):
        unpack_envelope(encode("just text"))


def _socket_pair():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.create_connection(listener.getsockname())
    server, _ = listener.accept()
    listener.close()
    return client, server


def test_frame_roundtrip_and_limit():
    client, server = _socket_pair()
    try:
        write_frame(client, b"hello")
        assert read_frame(server) == b"hello"
        client.close()
        assert read_frame(server) is None  # clean end of stream
    finally:
        server.close()

    client, server = _socket_pair()
    try:
        # an out-of-range length prefix is rejected before reading the body
        client.sendall(struct.pack(">I", FRAME_LIMIT + 1))
        with pytest.raises(DecodeError):
            read_frame(server)
    finally:
        client.close()
        server.close()


def test_loopback_echo_byte_identical():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    ta = TcpTransport("a", book, recv_timeout=5)
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        body = bytes(range(256))
        ta.send("b", body)
        assert tb.recv("a") == body
        tb.send("a", body[::-1])
        assert ta.recv("b") == body[::-1]
    finally:
        ta.close()
        tb.close()


def test_recv_timeout():
    book = {"a": f"127.0.0.1:{free_port()}"}
    ta = TcpTransport("a", book, recv_timeout=0.2)
    try:
        with pytest.raises(TransportError):
            ta.recv("ghost")
    finally:
        ta.close()


def test_fifo_per_sender():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    ta = TcpTransport("a", book, recv_timeout=5)
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        for i in range(20):
            ta.send("b", bytes([i]))
        assert [tb.recv("a")[0] for _ in range(20)] == list(range(20))
    finally:
        ta.close()
        tb.close()


def test_protocol_over_tcp_matches_simulator():
    ex = build_example("kvs-enclave")
    book = {n: f"127.0.0.1:{free_port()}" for n in ex.census.names}
    results = {}
    failures = []

    def run(name):
        transport = TcpTransport(name, book, recv_timeout=15)
        try:
            view, _ = project_and_run(
                ex.choreography, ex.census, name, transport,
                ex.args, seed=21, inputs=ex.inputs,
            )
            results[name] = view
        except BaseException as exc:  # surfaced via the main thread's assert
            failures.append((name, exc))
        finally:
            transport.close()

    threads = [threading.Thread(target=run, args=(n,)) for n in ex.census.names]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not failures, failures

    simulated = run_simulated(ex.choreography, ex.census, ex.args, seed=21, inputs=ex.inputs)
    simulated.require_success()
    for name in ex.census.names:
        assert results[name] == simulated.result_view(name)


def test_close_stops_the_acceptor_and_the_listener():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    ta = TcpTransport("a", book, recv_timeout=5)
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        # one delivery puts a's acceptor back into a blocking accept()
        tb.send("a", b"x")
        assert ta.recv("b") == b"x"
        time.sleep(0.05)
        acceptor = ta._acceptor
        assert acceptor.is_alive()
        started = time.monotonic()
        ta.close()
        acceptor.join(timeout=1.0)
        assert not acceptor.is_alive()
        assert time.monotonic() - started < 1.0
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", ta.port), timeout=1.0).close()
    finally:
        ta.close()
        tb.close()


def test_recv_from_a_closed_peer_fails_fast():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    ta = TcpTransport("a", book, recv_timeout=5)
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        ta.send("b", b"last")
        ta.close()
        assert tb.recv("a") == b"last"  # frames sent before the close still arrive
        started = time.monotonic()
        with pytest.raises(TransportError, match="closed the connection"):
            tb.recv("a")
        assert time.monotonic() - started < 1.0
    finally:
        ta.close()
        tb.close()
