"""TCP transport: frame format, envelope codec, loopback delivery, and a full
protocol run over real sockets."""

import socket
import struct
import threading
import time

import pytest

from choreo import RunReport, census_of, project_and_run, run_centralized
from choreo.conformance import compare_runs
from choreo.errors import DecodeError, TransportError
from choreo.examples import ExampleRun, build_example
from choreo.located import Quire
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
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    ta = TcpTransport("a", book, recv_timeout=0.2)
    try:
        with pytest.raises(TransportError, match="timed out"):
            ta.recv("b")  # a peer that never sends
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


def _run_over_tcp(ex, seed, audit=False):
    """Every endpoint of `ex` in its own thread over loopback TCP; returns
    one report merged from the endpoints' fragments."""
    book = {n: f"127.0.0.1:{free_port()}" for n in ex.census.names}
    fragments = {}
    failures = []

    def run(name):
        transport = TcpTransport(name, book, recv_timeout=15)
        try:
            fragments[name] = project_and_run(
                ex.choreography, ex.census, name, transport,
                ex.args, seed=seed, inputs=ex.inputs, audit=audit,
            )[1]
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
    names = ex.census.names
    return RunReport(names, {n: fragments[n].endpoints[n] for n in names},
                     [m for n in names for m in fragments[n].messages])


@pytest.mark.parametrize("name, options", [
    ("kvs-enclave", {}),
    ("kvs-poly", {}),
    ("gmw", {"parties": 3}),
    ("lottery", {}),
], ids=["kvs-enclave", "kvs-poly", "gmw", "lottery"])
def test_protocol_over_tcp_agrees_with_oracle(name, options):
    ex = build_example(name, **options)
    over_tcp = _run_over_tcp(ex, seed=21, audit=True)
    central = run_centralized(ex.choreography, ex.census, ex.args, seed=21, inputs=ex.inputs)
    central.require_success()
    assert compare_runs(central, over_tcp) == []


def _rare_operators(b, args):
    # scatter, gather, replicated and others_forget: no example uses them
    keys = b.census
    quire = b.locally(
        b.member("p"), lambda un: Quire(keys, {n: args + i for i, n in enumerate(keys.names)})
    )
    leaves = b.scatter(b.member("p"), b.everyone(), quire)  # p -> q, p -> r
    gathered = b.gather(b.everyone(), b.subset(["q"]), leaves)  # p -> q, r -> q
    total = b.locally(b.member("q"), lambda un: sum(un(gathered).values()))
    shared = b.multicast(b.member("q"), b.everyone(), total)  # q -> p, q -> r
    doubled = b.replicated(lambda un: 2 * un(shared))
    return leaves, b.others_forget(b.subset(["r"]), doubled)


def test_rare_operators_over_tcp_agree_with_oracle():
    ex = ExampleRun("rare-operators", _rare_operators, census_of(["p", "q", "r"]), 1)
    over_tcp = _run_over_tcp(ex, seed=21, audit=True)
    central = run_centralized(ex.choreography, ex.census, ex.args, seed=21)
    central.require_success()
    assert compare_runs(central, over_tcp) == []
    assert len(over_tcp.messages) == 6
    assert over_tcp.result_view("r") == [
        {"faceted": ["p", "q", "r"], "facet": 3}, {"located": ["r"], "value": 12}
    ]


def test_audit_only_observes_over_tcp():
    ex = build_example("kvs-enclave")
    plain = _run_over_tcp(ex, seed=21)
    audited = _run_over_tcp(ex, seed=21, audit=True)
    assert plain.serialize() == audited.serialize()
    assert plain.messages == audited.messages
    for name in ex.census.names:
        log, audited_log = plain.endpoints[name], audited.endpoints[name]
        assert log.result == audited_log.result
        assert log.values == []
        assert audited_log.audited and audited_log.values


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


def test_close_stops_every_thread_while_the_peer_stays_open():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    tb = TcpTransport("b", book, recv_timeout=5)
    before = set(threading.enumerate())
    ta = TcpTransport("a", book, recv_timeout=5)
    try:
        tb.send("a", b"x")  # a accepts b's connection and starts its reader
        assert ta.recv("b") == b"x"
        ta.close()
        assert [t for t in threading.enumerate() if t not in before] == []
    finally:
        ta.close()
        tb.close()


def test_out_of_order_seq_fails_the_receive_fast():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        with socket.create_connection(("127.0.0.1", tb.port)) as raw:
            write_frame(raw, pack_envelope("a", 0, b"first"))
            write_frame(raw, pack_envelope("a", 2, b"gap"))
            assert tb.recv("a") == b"first"
            started = time.monotonic()
            with pytest.raises(TransportError, match="out-of-order"):
                tb.recv("a")
            assert time.monotonic() - started < 0.25
    finally:
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
        with pytest.raises(TransportError, match="closed the connection"):
            tb.recv("a")  # and every later receive from the closed peer
        assert time.monotonic() - started < 1.0
    finally:
        ta.close()
        tb.close()


@pytest.mark.parametrize("payload", [
    b"\xff\xff\xff",  # not a portable encoding
    pack_envelope("mallory", 0, b"x"),  # a sender outside the address book
], ids=["garbage", "unknown-sender"])
def test_a_faulty_connection_fails_every_recv_fast(payload):
    book = {n: f"127.0.0.1:{free_port()}" for n in ("a", "b", "c")}
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        with socket.create_connection(("127.0.0.1", tb.port)) as rogue:
            write_frame(rogue, payload)
            started = time.monotonic()
            for peer in ("a", "c"):
                with pytest.raises(TransportError):
                    tb.recv(peer)
            assert time.monotonic() - started < 0.25
    finally:
        tb.close()


def test_recv_from_a_non_peer_fails_at_once():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    ta = TcpTransport("a", book, recv_timeout=5)
    try:
        started = time.monotonic()
        for name in ("ghost", "a"):
            with pytest.raises(TransportError, match="is not a peer"):
                ta.recv(name)
        assert time.monotonic() - started < 0.25
    finally:
        ta.close()
