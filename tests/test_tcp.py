"""TCP transport: frame format, envelope codec, loopback delivery, and a full
protocol run over real sockets."""

import gc
import socket
import struct
import sys
import threading
import time
import warnings

import pytest

from choreo import census_of, run_centralized, run_over_tcp
from choreo.conformance import compare_runs
from choreo.errors import DecodeError, TransportError
from choreo.examples import ExampleRun, build_example
from choreo.located import Quire
from choreo.portable import encode
from choreo.runtime import simulate
from choreo.transport import TcpTransport, free_port
from choreo.transport.tcp import (
    FRAME_LIMIT,
    pack_envelope,
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
    with pytest.raises(DecodeError):
        unpack_envelope(encode(["alice", True, "x"]))  # a bool is not a seq
    with pytest.raises(DecodeError):
        unpack_envelope(encode(["alice", 0, "\u0100"]))  # not latin-1 text


def test_frame_roundtrip_and_limit():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        with socket.create_connection(("127.0.0.1", tb.port)) as raw:
            write_frame(raw, pack_envelope("a", 0, b"hello"))
            assert tb.recv("a") == b"hello"
        _recv_fails_within(tb, "a", "'a' closed the connection")  # clean end of stream
    finally:
        tb.close()

    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        with socket.create_connection(("127.0.0.1", tb.port)) as raw:
            write_frame(raw, pack_envelope("a", 0, b"hello"))
            assert tb.recv("a") == b"hello"
            # an out-of-range length prefix is rejected before reading the body
            raw.sendall(struct.pack(">I", FRAME_LIMIT + 1))
            failed = _recv_fails_within(tb, "a", "receive from 'a' failed")
            assert isinstance(failed.__cause__, DecodeError)
    finally:
        tb.close()


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


def test_a_send_waits_out_back_pressure_up_to_the_receive_timeout():
    # A 16 MiB frame overfills the loopback buffers, so the send blocks until
    # the receiver starts reading 3 s later; the connect's own 2 s bound must
    # not carry over to the send.
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    ta = TcpTransport("a", book, recv_timeout=5)
    tb = TcpTransport("b", book, recv_timeout=5)
    big = bytes(16 * 1024 * 1024)
    failures = []

    def send_both():
        try:
            ta.send("b", b"first")
            ta.send("b", big)
        except TransportError as exc:
            failures.append(exc)

    sender = threading.Thread(target=send_both)
    try:
        sender.start()
        time.sleep(3.0)
        assert failures == []  # still blocked, not timed out
        assert tb.recv("a") == b"first"
        assert tb.recv("a") == big
        sender.join(timeout=10)
        assert failures == []
    finally:
        ta.close()
        tb.close()
        sender.join(timeout=10)


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


@pytest.mark.parametrize("ex", [
    build_example("kvs-enclave"),
    build_example("kvs-poly"),
    build_example("gmw", parties=3),
    build_example("lottery"),
    ExampleRun("rare-operators", _rare_operators, census_of(["p", "q", "r"]), 1),
], ids=lambda ex: ex.name)
def test_protocol_over_tcp_agrees_with_oracle(ex):
    over_tcp, again = (
        run_over_tcp(ex.choreography, ex.census, ex.args, seed=21, inputs=ex.inputs, audit=True)
        for _ in range(2)
    )
    assert over_tcp.serialize() == again.serialize()
    central = run_centralized(ex.choreography, ex.census, ex.args, seed=21, inputs=ex.inputs)
    central.require_success()
    assert compare_runs(central, over_tcp) == []
    if ex.name == "rare-operators":
        assert len(over_tcp.messages) == 6
        assert over_tcp.result_view("r") == [
            {"faceted": ["p", "q", "r"], "facet": 3}, {"located": ["r"], "value": 12}
        ]


def test_audit_only_observes_over_tcp():
    ex = build_example("kvs-enclave")
    plain, audited = (
        run_over_tcp(ex.choreography, ex.census, ex.args, seed=21, inputs=ex.inputs, audit=audit)
        for audit in (False, True)
    )
    assert plain.serialize() == audited.serialize()
    assert plain.messages == audited.messages
    for name in ex.census.names:
        log, audited_log = plain.endpoints[name], audited.endpoints[name]
        assert log.result == audited_log.result
        assert log.values == []
        assert audited_log.audited and audited_log.values


def _fails_between_two_sends(b, args):
    b.multicast(b.member("r"), b.subset(["q"]), b.locally(b.member("r"), lambda un: 2))
    b.multicast(b.member("p"), b.subset(["q"]), b.locally(b.member("p"), lambda un: 1))
    failed = b.locally(b.member("p"), lambda un: 1 // 0)
    return b.multicast(b.member("p"), b.subset(["q"]), failed)  # never sent


def test_a_failing_run_over_tcp_is_data():
    before = set(threading.enumerate())
    started = time.monotonic()
    report = run_over_tcp(_fails_between_two_sends, census_of(["p", "q", "r"]))
    assert time.monotonic() - started < 1.0
    errors = report.errors()
    assert isinstance(errors["p"], ZeroDivisionError)
    assert isinstance(errors["q"], TransportError)
    assert "'p' closed the connection" in str(errors["q"])
    assert "r" not in errors and report.result_view("r") is not None
    assert sorted((m.sender, m.receiver) for m in report.messages) == [("p", "q"), ("r", "q")]
    assert [t for t in threading.enumerate() if t not in before] == []


def test_run_over_tcp_closes_every_bound_endpoint_when_a_later_one_cannot_bind(monkeypatch):
    holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)  # holds q's port
    holder.bind(("127.0.0.1", 0))
    holder.listen()
    first = free_port()
    ports = iter([first, holder.getsockname()[1], free_port()])
    monkeypatch.setattr(simulate, "free_port", lambda: next(ports))
    before = set(threading.enumerate())
    try:
        with pytest.raises(TransportError, match="^cannot listen as 'q'"):
            run_over_tcp(_fails_between_two_sends, census_of(["p", "q", "r"]))
        assert [t for t in threading.enumerate() if t not in before] == []
        with pytest.raises(OSError):  # p's listener is closed
            socket.create_connection(("127.0.0.1", first), timeout=1.0).close()
    finally:
        holder.close()


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


def _recv_fails_within(transport, peer, match, limit_s=0.25):
    started = time.monotonic()
    with pytest.raises(TransportError, match=match) as failed:
        transport.recv(peer)
    assert time.monotonic() - started < limit_s
    return failed.value


def test_a_closed_transport_fails_every_receive_at_once():
    book = {n: f"127.0.0.1:{free_port()}" for n in ("a", "b", "c")}
    ta = TcpTransport("a", book, recv_timeout=3)
    tb = TcpTransport("b", book, recv_timeout=3)
    try:
        tb.send("a", b"x")
        assert ta.recv("b") == b"x"
        failures = []

        def blocked(peer):
            try:
                ta.recv(peer)
            except TransportError as exc:
                failures.append((peer, str(exc), time.monotonic()))

        # one receive blocked on a connected peer, one on a peer that never connects
        waiters = [threading.Thread(target=blocked, args=(p,)) for p in ("b", "c")]
        for t in waiters:
            t.start()
        time.sleep(0.2)
        closed_at = time.monotonic()
        ta.close()
        for t in waiters:
            t.join(timeout=1.0)
        assert sorted(p for p, _, _ in failures) == ["b", "c"]
        for _, text, failed_at in failures:
            assert "transport of 'a' is closed" in text
            assert failed_at - closed_at < 0.25
        for peer in ("b", "c"):
            _recv_fails_within(ta, peer, "transport of 'a' is closed")
    finally:
        ta.close()
        tb.close()


def test_a_timeout_mid_frame_keeps_the_bytes_read():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    tb = TcpTransport("b", book, recv_timeout=0.2)
    try:
        with socket.create_connection(("127.0.0.1", tb.port)) as raw:
            write_frame(raw, pack_envelope("a", 0, b"first"))
            assert tb.recv("a") == b"first"
            payload = pack_envelope("a", 1, b"split across a timeout")
            frame = struct.pack(">I", len(payload)) + payload
            half = len(frame) // 2
            raw.sendall(frame[:half])
            with pytest.raises(TransportError, match="timed out"):
                tb.recv("a")
            raw.sendall(frame[half:])
            write_frame(raw, pack_envelope("a", 2, b"next"))
            assert tb.recv("a") == b"split across a timeout"
            assert tb.recv("a") == b"next"
    finally:
        tb.close()


def test_no_thread_per_connection_outlives_naming():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    before = set(threading.enumerate())
    ta = TcpTransport("a", book, recv_timeout=5)
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        for i in range(3):
            ta.send("b", bytes([i]))
            assert tb.recv("a") == bytes([i])
            tb.send("a", bytes([i]))
            assert ta.recv("b") == bytes([i])
        acceptors = {ta._acceptor, tb._acceptor}
        started = [t for t in threading.enumerate() if t not in before]
        for t in started:
            if t not in acceptors:
                t.join(timeout=1.0)
        assert {t for t in started if t.is_alive()} == acceptors
    finally:
        ta.close()
        tb.close()


def test_a_faulty_unnamed_connection_fails_frames_not_yet_received():
    book = {n: f"127.0.0.1:{free_port()}" for n in ("a", "b", "c")}
    ta = TcpTransport("a", book, recv_timeout=5)
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        ta.send("b", b"delivered")
        ta.send("b", b"arrived, not received")
        assert tb.recv("a") == b"delivered"
        with socket.create_connection(("127.0.0.1", tb.port)) as rogue:
            write_frame(rogue, b"\xff\xff\xff")
            _recv_fails_within(tb, "c", "receive from 'c' failed")  # the fault is seen
            _recv_fails_within(tb, "a", "receive from 'a' failed")
    finally:
        ta.close()
        tb.close()


def test_a_second_connection_naming_a_sender_fails_its_receives():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        with socket.create_connection(("127.0.0.1", tb.port)) as first:
            write_frame(first, pack_envelope("a", 0, b"x"))
            assert tb.recv("a") == b"x"
            with socket.create_connection(("127.0.0.1", tb.port)) as second:
                write_frame(second, pack_envelope("a", 1, b"y"))
                _recv_fails_within(tb, "a", "a second connection from 'a'", limit_s=1.0)
                _recv_fails_within(tb, "a", "a second connection from 'a'")
    finally:
        tb.close()


def test_a_later_frame_naming_another_sender_fails_that_peers_receives():
    book = {n: f"127.0.0.1:{free_port()}" for n in ("a", "b", "c")}
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        with socket.create_connection(("127.0.0.1", tb.port)) as raw:
            write_frame(raw, pack_envelope("a", 0, b"x"))
            write_frame(raw, pack_envelope("c", 1, b"y"))
            assert tb.recv("a") == b"x"
            _recv_fails_within(tb, "a", "frame from 'c' on the connection of 'a'")
            _recv_fails_within(tb, "a", "frame from 'c' on the connection of 'a'")
    finally:
        tb.close()


def test_a_peer_closing_mid_frame_fails_the_receive():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        with socket.create_connection(("127.0.0.1", tb.port)) as raw:
            write_frame(raw, pack_envelope("a", 0, b"whole"))
            payload = pack_envelope("a", 1, b"cut short")
            raw.sendall((struct.pack(">I", len(payload)) + payload)[:-3])
        assert tb.recv("a") == b"whole"
        _recv_fails_within(tb, "a", "connection closed mid-frame")
    finally:
        tb.close()


def test_a_send_to_an_address_where_nothing_listens_fails_after_the_connect_timeout():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    ta = TcpTransport("a", book, connect_timeout=0.3)
    try:
        started = time.monotonic()
        with pytest.raises(TransportError, match="^cannot connect to 'b' at 127.0.0.1:"):
            ta.send("b", b"x")
        assert 0.3 <= time.monotonic() - started < 2.0
    finally:
        ta.close()


def test_every_pair_stays_in_order_under_thread_contention():
    names = ("a", "b", "c", "d")
    book = {n: f"127.0.0.1:{free_port()}" for n in names}
    transports = {n: TcpTransport(n, book, recv_timeout=10) for n in names}
    count = 150
    got = {}

    def sender(frm, to):
        for i in range(count):
            transports[frm].send(to, f"{frm}{i}".encode())

    def receiver(frm, to):
        got[frm, to] = [transports[to].recv(frm).decode() for _ in range(count)]

    pairs = [(x, y) for x in names for y in names if x != y]
    threads = [threading.Thread(target=f, args=p) for p in pairs for f in (sender, receiver)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        for t in transports.values():
            t.close()
    assert got == {(x, y): [f"{x}{i}" for i in range(count)] for x, y in pairs}


def test_a_silent_unnamed_connection_does_not_hold_up_a_real_peer():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    ta = TcpTransport("a", book, recv_timeout=5)
    tb = TcpTransport("b", book, recv_timeout=5)
    try:
        with socket.create_connection(("127.0.0.1", tb.port)):  # never sends a byte
            time.sleep(0.05)
            ta.send("b", b"x")
            started = time.monotonic()
            assert tb.recv("a") == b"x"
            assert time.monotonic() - started < 1.0
    finally:
        ta.close()
        tb.close()


TIMEOUTS_MUST_BE_POSITIVE = "recv_timeout and connect_timeout must be positive"
TIMEOUT_TOO_LONG = "a timeout above 9223372036 s is too long for a socket"


@pytest.mark.parametrize("own,peer,timeouts,match", [
    ("taken", None, {}, "cannot listen as 'a' at 127.0.0.1:"),
    ("127.0.0.1:70000", None, {}, "bad port in address '127.0.0.1:70000'"),
    (None, "127.0.0.1:70000", {}, "bad port in address '127.0.0.1:70000'"),
    ("192.0.2.1:5000", None, {}, "cannot listen as 'a' at 192.0.2.1:5000"),
    (None, None, {"recv_timeout": -1}, TIMEOUTS_MUST_BE_POSITIVE),
    (None, None, {"recv_timeout": 0}, TIMEOUTS_MUST_BE_POSITIVE),
    (None, None, {"recv_timeout": float("nan")}, TIMEOUTS_MUST_BE_POSITIVE),
    (None, None, {"connect_timeout": 0}, TIMEOUTS_MUST_BE_POSITIVE),
    (None, None, {"recv_timeout": float("inf")}, TIMEOUT_TOO_LONG),
    (None, None, {"recv_timeout": 1e10}, TIMEOUT_TOO_LONG),
    (None, None, {"connect_timeout": float("inf")}, TIMEOUT_TOO_LONG),
], ids=["taken-port", "own-port-out-of-range", "peer-port-out-of-range", "address-not-local",
        "negative-recv-timeout", "zero-recv-timeout", "nan-recv-timeout",
        "zero-connect-timeout", "infinite-recv-timeout", "too-long-recv-timeout",
        "infinite-connect-timeout"])
def test_set_up_errors_are_transport_errors_and_leak_no_socket(own, peer, timeouts, match):
    holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)  # holds the taken port
    holder.bind(("127.0.0.1", 0))
    holder.listen()
    taken = f"127.0.0.1:{holder.getsockname()[1]}"
    book = {"a": taken if own == "taken" else own or f"127.0.0.1:{free_port()}",
            "b": peer or f"127.0.0.1:{free_port()}"}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TransportError, match=match):
                TcpTransport("a", book, **timeouts)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    finally:
        holder.close()


def test_send_on_a_closed_transport_fails_and_connects_nowhere():
    book = {"a": f"127.0.0.1:{free_port()}", "b": f"127.0.0.1:{free_port()}"}
    ta = TcpTransport("a", book, recv_timeout=5)
    tb = TcpTransport("b", book, recv_timeout=0.2)
    try:
        ta.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TransportError, match="the transport of 'a' is closed"):
                ta.send("b", b"x")
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert ta._out == {}
        _recv_fails_within(tb, "a", "timed out", limit_s=1.0)
    finally:
        ta.close()
        tb.close()
