"""Socket front-end tests: hello handshake, framing loop, timeouts as
typed wire errors, encryption over TCP, and graceful drain.

The socket server and the in-process tunnel speak identical bytes, so
most behaviour is asserted through :class:`SocketTransport` — the same
client the applet uses.
"""

import socket
import threading
import time

import pytest

from repro.errors import CODE_TIMEOUT, ProtocolError
from repro.obs import LogHub, MetricsRegistry
from repro.server import netserver, protocol
from repro.server import transport as transport_module
from repro.server.netserver import MemexSocketServer
from repro.server.protocol import decode_message, encode_message, recv_frame
from repro.server.servlets import ServletRegistry
from repro.server.transport import SocketTransport
from repro.shard.gather import LocalBackend
from repro.shard.router import ShardRouter

from .rc4_reference import _reference_decode_message, _reference_encode_message


def _registry():
    reg = ServletRegistry()
    reg.register("whoami", lambda req: {"you": req["user_id"]})
    reg.register("echo", lambda req: {"echo": req.get("value")})
    return reg


@pytest.fixture()
def server():
    with MemexSocketServer(
        _registry(), workers=2, metrics=MetricsRegistry(),
    ) as srv:
        yield srv


def _client(server, **kwargs):
    host, port = server.address
    return SocketTransport(host, port, **kwargs)


# -- handshake and framing loop ----------------------------------------------

def test_request_roundtrip_over_tcp(server):
    with _client(server) as transport:
        out = transport.request("alice", {"servlet": "whoami"})
        assert out["status"] == "ok" and out["you"] == "alice"
        # Same connection serves the framing loop's next request.
        assert transport.request(
            "alice", {"servlet": "echo", "value": 7})["echo"] == 7
    assert server.metrics.counter_value("net.connections_total") == 1


def test_request_batch_over_tcp(server):
    with _client(server) as transport:
        out = transport.request_batch(
            "alice", [{"servlet": "whoami"}, {"servlet": "echo", "value": 1}],
        )
    assert [out[0]["you"], out[1]["echo"]] == ["alice", 1]


def test_connections_are_per_user(server):
    with _client(server) as transport:
        transport.request("alice", {"servlet": "whoami"})
        transport.request("bob", {"servlet": "whoami"})
    assert server.metrics.counter_value("net.connections_total") == 2


def test_non_hello_first_frame_is_rejected(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(encode_message({"servlet": "whoami", "user_id": "x"}))
        raw = recv_frame(sock.recv)
        assert raw is not None
        response = decode_message(raw)
        assert response["status"] == "error"
        assert "hello" in response["error"]
        # The connection is closed after a rejected hello.
        sock.settimeout(5.0)
        assert sock.recv(1) == b""


def test_malformed_hello_value_is_rejected(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(encode_message({"hello": 42}))
        response = decode_message(recv_frame(sock.recv))
        assert response["status"] == "error"


# -- encryption over the socket ----------------------------------------------

def test_encrypted_user_over_tcp(server):
    server.keys.set_key("carol", b"carols-key")
    with _client(server) as transport:
        transport.set_key("carol", b"carols-key")
        assert transport.request(
            "carol", {"servlet": "whoami"})["you"] == "carol"


def test_client_without_key_refuses_encrypted_session(server):
    server.keys.set_key("carol", b"carols-key")
    with _client(server) as transport:
        with pytest.raises(ProtocolError, match="encrypted"):
            transport.request("carol", {"servlet": "whoami"})


def test_key_mismatch_yields_cipher_error(server):
    server.keys.set_key("carol", b"carols-key")
    with _client(server) as transport:
        transport.set_key("carol", b"wrong-key")
        with pytest.raises(ProtocolError):
            transport.request("carol", {"servlet": "whoami"})


def _hello(address, user):
    """A hand-driven connection, bound to *user* by a (cleartext) hello."""
    sock = socket.create_connection(address, timeout=5.0)
    sock.sendall(encode_message({"hello": user}))
    ack = decode_message(recv_frame(sock.recv))
    assert ack["status"] == "ok"
    return sock, ack


def _recording_registry(served):
    reg = ServletRegistry()
    reg.register(
        "whoami", lambda req: served.append(req) or {"you": req["user_id"]})
    return reg


def test_keyed_user_cannot_be_impersonated_in_cleartext():
    """Whoever says ``{"hello": "carol"}`` is bound to carol; only the
    key shows it *is* carol, so her session takes no cleartext frame."""
    served = []
    with MemexSocketServer(_recording_registry(served), workers=2) as srv:
        srv.keys.set_key("carol", b"carols-key")
        sock, ack = _hello(srv.address, "carol")
        with sock:
            assert ack["encrypted"] is True
            sock.sendall(encode_message({"servlet": "whoami"}))
            response = decode_message(recv_frame(sock.recv), key=b"carols-key")
            assert response["status"] == "error"
            assert response["error_code"] == "bad_request"
            assert served == []
            # Framing is intact: the same connection serves carol's key.
            sock.sendall(encode_message({"servlet": "whoami", "user_id": "carol"},
                                        key=b"carols-key"))
            response = decode_message(recv_frame(sock.recv), key=b"carols-key")
            assert response["you"] == "carol"
        # Keyless sessions are cleartext as ever.
        with _client(srv) as transport:
            assert transport.request("dave", {"servlet": "whoami"})["you"] == "dave"


def test_router_refuses_cleartext_from_a_keyed_user():
    """The router stamps the hello's user as authoritative, so it is the
    one place a forged frame would become carol's request."""
    served = []
    with ShardRouter(
        [LocalBackend(_recording_registry(served))], workers=2,
    ) as router:
        router.set_key("carol", b"carols-key")
        sock, _ack = _hello(router.address, "carol")
        with sock:
            sock.sendall(encode_message({"servlet": "whoami"}))
            response = decode_message(recv_frame(sock.recv), key=b"carols-key")
        assert response["status"] == "error"
        assert response["error_code"] == "bad_request"
        assert served == []
        with SocketTransport(*router.address) as transport:
            transport.set_key("carol", b"carols-key")
            assert transport.request(
                "carol", {"servlet": "whoami"})["you"] == "carol"
        assert [req["user_id"] for req in served] == ["carol"]


def test_empty_key_is_refused_where_it_is_set(server):
    with pytest.raises(ValueError):
        server.keys.set_key("erin", b"")
    assert server.keys.key_for("erin") is None
    with _client(server) as transport:
        with pytest.raises(ValueError):
            transport.set_key("erin", b"")
        assert transport.key_for("erin") is None
        assert transport.request("erin", {"servlet": "whoami"})["you"] == "erin"


def test_a_cipher_that_raises_closes_the_connection_not_the_worker():
    """A key source outside our control hands out a key the cipher
    refuses: no frame can be written to that session, so it ends with a
    clean close — and the worker lives to serve the next connection."""

    class EmptyKeys:
        def key_for(self, user_id):
            return b"" if user_id == "erin" else None

    hub = LogHub()
    with MemexSocketServer(
        _registry(), workers=1, key_source=EmptyKeys(), log=hub.logger("net"),
    ) as srv:
        with _client(srv) as transport:
            transport.set_key("erin", b"some-key")
            with pytest.raises(ProtocolError) as err:
                transport.request("erin", {"servlet": "whoami"})
            assert err.value.code == CODE_TIMEOUT
            # The only worker is free again.
            assert transport.request("dave", {"servlet": "whoami"})["you"] == "dave"
    assert [r["event"] for r in hub.records(level="error")] == []


def test_unframeable_response_earns_a_typed_error(monkeypatch):
    """A response over the frame limit used to crash the worker; the
    client is told why and the connection goes on."""
    reg = _registry()
    reg.register("inflate", lambda req: {"blob": "x" * req["n"]})
    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 512)
    hub = LogHub()
    with MemexSocketServer(reg, workers=1, log=hub.logger("net")) as srv:
        with _client(srv) as transport:
            response = transport.request("alice", {"servlet": "inflate", "n": 600})
            assert response["status"] == "error"
            assert response["error_code"] == "bad_request"
            assert "too large" in response["error"]
            assert transport.request(
                "alice", {"servlet": "inflate", "n": 6})["blob"] == "xxxxxx"
    assert hub.records(level="error") == []


# -- old and new ciphers share one wire ---------------------------------------

def test_reference_cipher_client_talks_to_this_server(server):
    """The parent commit's client (the per-byte cipher stands in for it)
    against this server."""
    key = b"carols-key"
    server.keys.set_key("carol", key)
    sock, _ack = _hello(server.address, "carol")
    with sock:
        for value in ("short", "x" * 3000, "again"):
            request = {"servlet": "echo", "user_id": "carol", "value": value}
            sock.sendall(_reference_encode_message(request, key))
            response = _reference_decode_message(recv_frame(sock.recv), key)
            assert response == {"echo": value, "status": "ok"}


def test_this_client_talks_to_a_reference_cipher_server(monkeypatch):
    """...and this client against the parent's server: the socket server
    is given the per-byte codec, the transport keeps the module's."""
    monkeypatch.setattr(
        netserver, "encode_message",
        lambda payload, key=None: _reference_encode_message(payload, key))
    monkeypatch.setattr(
        netserver, "decode_message",
        lambda frame, key=None: _reference_decode_message(frame, key))
    key = b"carols-key"
    with MemexSocketServer(_registry(), workers=2) as srv:
        srv.keys.set_key("carol", key)
        with _client(srv) as transport:
            transport.set_key("carol", key)
            for value in ("short", "x" * 3000, "again"):
                assert transport.request(
                    "carol", {"servlet": "echo", "value": value},
                ) == {"echo": value, "status": "ok"}


# -- timeouts map to typed wire errors ---------------------------------------

def test_idle_timeout_closes_connection_quietly():
    with MemexSocketServer(
        _registry(), workers=1, idle_timeout=0.15, metrics=MetricsRegistry(),
    ) as srv:
        host, port = srv.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(encode_message({"hello": "alice"}))
            ack = decode_message(recv_frame(sock.recv))
            assert ack["status"] == "ok"
            # Send nothing: the server times out waiting for a new frame
            # and closes without an error payload.
            sock.settimeout(5.0)
            assert sock.recv(1) == b""
        assert srv.metrics.counter_value("net.timeouts_total") == 0


def test_client_reconnects_before_sending_on_an_idled_out_connection(monkeypatch):
    """PROTOCOL.md: idling out is 'no error — the client reconnects on
    its next request'.  The client looks before it sends, so the request
    goes out once, on the new connection."""
    monkeypatch.setattr(transport_module, "_STALE_AFTER_S", 0.05)
    served = []
    with MemexSocketServer(
        _recording_registry(served), workers=1, idle_timeout=0.15,
        metrics=MetricsRegistry(),
    ) as srv:
        with _client(srv) as transport:
            assert transport.request("alice", {"servlet": "whoami"})["you"] == "alice"
            first = transport._conns["alice"].sock
            time.sleep(0.4)   # the server hangs up on the pooled connection
            assert transport.request("alice", {"servlet": "whoami"})["you"] == "alice"
            assert transport._conns["alice"].sock is not first
            # A connection in steady use is not probed, let alone reopened.
            second = transport._conns["alice"].sock
            assert transport.request("alice", {"servlet": "whoami"})["you"] == "alice"
            assert transport._conns["alice"].sock is second
        assert len(served) == 3
        assert srv.metrics.counter_value("net.connections_total") == 2


def test_server_dying_mid_request_is_a_retryable_error():
    """The EOF that remains — after the frame went out — cannot be
    papered over (the request may have been applied): typed, retryable."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()

    def serve_hello_then_die():
        conn, _ = listener.accept()
        with conn:
            recv_frame(conn.recv)
            conn.sendall(encode_message({"status": "ok", "encrypted": False}))
            recv_frame(conn.recv)   # the request arrives; no answer

    t = threading.Thread(target=serve_hello_then_die)
    t.start()
    try:
        with SocketTransport(host, port) as transport:
            with pytest.raises(ProtocolError) as err:
                transport.request("alice", {"servlet": "whoami"})
        assert err.value.code == CODE_TIMEOUT
    finally:
        t.join(timeout=5.0)
        listener.close()
    assert not t.is_alive()


def test_mid_frame_stall_gets_typed_timeout_error():
    with MemexSocketServer(
        _registry(), workers=1, read_timeout=0.15, metrics=MetricsRegistry(),
    ) as srv:
        host, port = srv.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(encode_message({"hello": "alice"}))
            decode_message(recv_frame(sock.recv))
            # A frame header promising more bytes than we send: the body
            # wait exceeds read_timeout.
            full = encode_message({"servlet": "whoami", "user_id": "alice"})
            sock.sendall(full[:-3])
            response = decode_message(recv_frame(sock.recv))
            assert response["status"] == "error"
            assert response["error_code"] == CODE_TIMEOUT
            assert response["retryable"] is True
        assert srv.metrics.counter_value("net.timeouts_total") == 1


def test_client_reconnects_after_drop(server):
    with _client(server) as transport:
        assert transport.request("alice", {"servlet": "whoami"})["you"] == "alice"
        # Kill the pooled connection behind the client's back.
        conn = transport._conns["alice"]
        conn.sock.close()
        with pytest.raises(ProtocolError):
            transport.request("alice", {"servlet": "whoami"})
        # The broken connection was dropped; the next request reopens.
        assert transport.request("alice", {"servlet": "whoami"})["you"] == "alice"


def test_connect_failure_is_retryable_protocol_error():
    # Grab a port with no listener.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    transport = SocketTransport("127.0.0.1", port, connect_timeout=0.5)
    with pytest.raises(ProtocolError) as err:
        transport.request("alice", {"servlet": "whoami"})
    assert err.value.code == CODE_TIMEOUT


# -- graceful drain ----------------------------------------------------------

def test_close_drains_in_flight_request():
    started = threading.Event()

    def slow(req):
        started.set()
        time.sleep(0.3)
        return {"done": True}

    reg = ServletRegistry()
    reg.register("slow", slow)
    srv = MemexSocketServer(reg, workers=1)
    transport = _client(srv)
    result = {}

    def call():
        result["response"] = transport.request("alice", {"servlet": "slow"})

    t = threading.Thread(target=call)
    t.start()
    assert started.wait(timeout=5.0)
    srv.close(drain=True)   # request is mid-dispatch: response must land
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert result["response"]["done"] is True
    transport.close()


def test_close_on_idle_server_does_not_wait_out_drain_timeout():
    # Closing a listening socket does not wake a thread blocked in
    # accept() on Linux; close() used to stall the full drain_timeout.
    srv = MemexSocketServer(_registry(), workers=2, drain_timeout=5.0)
    with _client(srv) as transport:  # the acceptor is parked again after this
        assert transport.request("alice", {"servlet": "whoami"})["you"] == "alice"
    time.sleep(0.05)
    start = time.monotonic()
    srv.close()
    assert time.monotonic() - start < 1.0
    assert not srv._acceptor.is_alive()


def test_close_is_idempotent(server):
    server.close()
    server.close()


def test_workers_validation():
    with pytest.raises(ValueError):
        MemexSocketServer(_registry(), workers=0)


# -- full stack: applet over the socket --------------------------------------

def test_applet_over_socket_matches_tunnel():
    from repro.client.applet import MemexApplet
    from repro.core import MemexSystem
    from repro.core.memex import MemexServer
    from repro.server.daemons import FetchedPage

    pages = {
        f"http://p{i}/": FetchedPage(f"http://p{i}/", f"P{i}", f"text {i}", ())
        for i in range(5)
    }
    system = MemexSystem(MemexServer(lambda u: pages.get(u)))
    system.register_user("u")           # via the in-process tunnel
    with system.server.listen(workers=2) as net:
        host, port = net.address
        with SocketTransport(host, port) as transport:
            applet = MemexApplet(transport, "u")
            for i in range(5):
                applet.record_visit(f"http://p{i}/", at=float(i))
            system.server.process_background_work()
            hits = applet.search("text", k=5)
    assert len(hits) == 5
    # The socket path landed in the same repository as the tunnel would.
    assert len(system.server.repo.user_visits("u")) == 5


# -- reconnect backoff -------------------------------------------------------

def test_reconnect_backoff_bounds_connect_attempts(monkeypatch):
    """A dead backend must not be hammered: connect failures arm a capped
    exponential backoff, and suppressed requests fail fast with a
    retryable ``unavailable`` error instead of a fresh TCP attempt."""
    import random

    from repro.errors import CODE_UNAVAILABLE
    from repro.server import transport as transport_mod

    attempts = []

    def refuse(address, timeout=None):
        attempts.append(time.monotonic())
        raise ConnectionRefusedError("nobody home")

    monkeypatch.setattr(transport_mod.socket, "create_connection", refuse)
    transport = SocketTransport(
        "127.0.0.1", 1, backoff_rng=random.Random(7),
    )

    codes = []
    deadline = time.monotonic() + 0.3
    while time.monotonic() < deadline:
        with pytest.raises(ProtocolError) as err:
            transport.request("alice", {"servlet": "whoami"})
        codes.append(err.value.code)
        time.sleep(0.002)

    # Many requests, few real connection attempts.
    assert len(codes) > 20
    assert len(attempts) <= 8
    # The attempt that failed reports a timeout; the suppressed requests
    # in between report the backend unavailable — both retryable.
    assert codes[0] == CODE_TIMEOUT
    assert CODE_UNAVAILABLE in codes
    # Per-second rate stays bounded even at exponential-phase start.
    assert len(attempts) / 0.3 < 30


def test_backoff_disarms_once_the_backend_accepts_again():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    transport = SocketTransport(
        "127.0.0.1", port, connect_timeout=0.5,
        backoff_base=0.01, backoff_cap=0.02,
    )
    with pytest.raises(ProtocolError):
        transport.request("alice", {"servlet": "whoami"})
    assert transport._backoff_failures == 1

    with MemexSocketServer(_registry(), host="127.0.0.1", port=port,
                           workers=2, metrics=MetricsRegistry()):
        time.sleep(0.05)  # let the backoff window expire
        out = transport.request("alice", {"servlet": "whoami"})
        assert out["you"] == "alice"
        assert transport._backoff_failures == 0
    transport.close()


# -- multiplexed backend connections -----------------------------------------

def test_multiplexed_transport_bounds_connections(server):
    """The router->worker hop carries many users over a fixed set of
    connections; the worker still sees each request's real user_id."""
    with _client(server, multiplex=2) as transport:
        for i in range(10):
            out = transport.request(f"user{i}", {"servlet": "whoami"})
            assert out["you"] == f"user{i}"
    assert server.metrics.counter_value("net.connections_total") <= 2
