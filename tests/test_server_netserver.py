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
from repro.obs import MetricsRegistry
from repro.server.netserver import MemexSocketServer
from repro.server.protocol import decode_message, encode_message, recv_frame
from repro.server.servlets import ServletRegistry
from repro.server.transport import SocketTransport


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
    assert server.metrics.counter_value("net.requests_total") == 2


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
