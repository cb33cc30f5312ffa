"""Socket front-end tests: hellos and rebinding, framing loop, timeouts
as typed wire errors, encryption over TCP, graceful drain, and what a
frame costs in syscalls at each end.

The socket server and the in-process tunnel speak identical bytes, so
most behaviour is asserted through :class:`SocketTransport` — the same
client the applet uses.
"""

import socket
import sys
import threading
import time

import pytest

from repro.errors import CODE_TIMEOUT, RETRYABLE_CODES, ProtocolError
from repro.obs import LogHub, MetricsRegistry
from repro.server import netserver, protocol
from repro.server import transport as transport_module
from repro.server.netserver import MemexSocketServer
from repro.server.protocol import decode_message, encode_message
from repro.server.servlets import ServletRegistry
from repro.server.transport import SocketTransport
from repro.shard.gather import LocalBackend
from repro.shard.router import ShardRouter

from .frame_reference import recv_frame
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


def test_one_connection_carries_every_user(server):
    """A connection is not a user: each switch is a hello in front of the
    request it names, on the connection already open."""
    with _client(server) as transport:
        for user in ("alice", "bob", "alice", "carol"):
            assert transport.request(user, {"servlet": "whoami"})["you"] == user
    assert server.metrics.counter_value("net.connections_total") == 1


def test_more_users_than_workers_do_not_wait_out_the_idle_timeout():
    """A server parks one worker per open connection, so a client that
    speaks for more users than the server has workers must not hold one
    connection per user: the next user would wait in the accept queue
    until the idle timeout freed a worker."""
    with MemexSocketServer(
        _registry(), workers=2, idle_timeout=3.0, metrics=MetricsRegistry(),
    ) as srv:
        with _client(srv) as transport:
            started = time.monotonic()
            for user in ("u1", "u2", "u3", "u4"):
                assert transport.request(user, {"servlet": "whoami"})["you"] == user
            assert time.monotonic() - started < 1.0


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
    """The server refuses a keyed user's cleartext frame, and answers in
    clear: a client without the key can read why."""
    server.keys.set_key("carol", b"carols-key")
    with _client(server) as transport:
        response = transport.request("carol", {"servlet": "whoami"})
        assert response["error_code"] == "bad_request"
        assert "encrypted" in response["error"]
        # The connection goes on to serve the next user.
        assert transport.request("dave", {"servlet": "whoami"})["you"] == "dave"
    assert server.metrics.counter_value("net.connections_total") == 1


def test_a_new_key_is_said_hello_under_on_the_same_connection(server):
    """The server looks a key up at hello time, so a connection bound to
    carol under her old key says hello again before her first frame
    under the new one."""
    server.keys.set_key("carol", b"old-key")
    with _client(server) as transport:
        transport.set_key("carol", b"old-key")
        assert transport.request("carol", {"servlet": "whoami"})["you"] == "carol"
        server.keys.set_key("carol", b"new-key")
        transport.set_key("carol", b"new-key")
        assert transport.request("carol", {"servlet": "whoami"})["you"] == "carol"
    assert server.metrics.counter_value("net.connections_total") == 1


def test_key_mismatch_yields_cipher_error(server):
    server.keys.set_key("carol", b"carols-key")
    with _client(server) as transport:
        transport.set_key("carol", b"wrong-key")
        with pytest.raises(ProtocolError):
            transport.request("carol", {"servlet": "whoami"})


def _hello(address, user):
    """A hand-driven connection, bound to *user* by a (cleartext) hello,
    which gets no reply."""
    sock = socket.create_connection(address, timeout=5.0)
    sock.sendall(encode_message({"hello": user}))
    return sock


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
        with _hello(srv.address, "carol") as sock:
            sock.sendall(encode_message({"servlet": "whoami"}))
            response = decode_message(recv_frame(sock.recv))  # in clear
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
        with _hello(router.address, "carol") as sock:
            sock.sendall(encode_message({"servlet": "whoami"}))
            response = decode_message(recv_frame(sock.recv))  # in clear
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
    with _hello(server.address, "carol") as sock:
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
        with _hello((host, port), "alice") as sock:
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
        connections = lambda: srv.metrics.counter_value("net.connections_total")
        with _client(srv) as transport:
            assert transport.request("alice", {"servlet": "whoami"})["you"] == "alice"
            assert connections() == 1
            time.sleep(0.4)   # the server hangs up on the pooled connection
            assert transport.request("bob", {"servlet": "whoami"})["you"] == "bob"
            assert connections() == 2
            # A connection in steady use is not probed, let alone reopened.
            assert transport.request("alice", {"servlet": "whoami"})["you"] == "alice"
            assert connections() == 2
        assert [req["user_id"] for req in served] == ["alice", "bob", "alice"]


def test_server_dying_mid_request_is_a_retryable_error():
    """The EOF that remains — after the frame went out — cannot be
    papered over (the request may have been applied): typed, retryable."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()

    def read_the_request_then_die():
        conn, _ = listener.accept()
        with conn:
            recv_frame(conn.recv)   # the hello
            recv_frame(conn.recv)   # the request arrives; no answer

    t = threading.Thread(target=read_the_request_then_die)
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


def test_mid_frame_stall_gets_typed_timeout_error(monkeypatch):
    monkeypatch.setattr(MemexSocketServer, "READ_TIMEOUT", 0.15)
    with MemexSocketServer(
        _registry(), workers=1, metrics=MetricsRegistry(),
    ) as srv:
        host, port = srv.address
        with _hello((host, port), "alice") as sock:
            # A frame header promising more bytes than we send: the body
            # wait exceeds READ_TIMEOUT.
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
        transport._idle[-1].sock.close()
        with pytest.raises(ProtocolError):
            transport.request("alice", {"servlet": "whoami"})
        # The broken connection was dropped; the next request reopens.
        assert transport.request("alice", {"servlet": "whoami"})["you"] == "alice"
    assert server.metrics.counter_value("net.connections_total") == 2


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
    # accept() on Linux; close() used to stall the full DRAIN_TIMEOUT.
    srv = MemexSocketServer(_registry(), workers=2)
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
    monkeypatch.setattr(SocketTransport, "BACKOFF_RNG", random.Random(7))
    transport = SocketTransport("127.0.0.1", 1)

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


def test_backoff_disarms_once_the_backend_accepts_again(monkeypatch):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    monkeypatch.setattr(SocketTransport, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(SocketTransport, "BACKOFF_CAP", 0.02)
    transport = SocketTransport("127.0.0.1", port, connect_timeout=0.5)
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


# -- the pool cap ----------------------------------------------------------

def test_pool_cap_bounds_open_connections():
    """2N threads speaking for many users share N connections: none
    beyond the cap is ever opened, no request is lost or cut, and the
    cap is reached (requests beyond it waited)."""
    cap, lock, state = 3, threading.Lock(), {"now": 0, "peak": 0}

    def hold(req):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        time.sleep(0.005)
        with lock:
            state["now"] -= 1
        return {"you": req["user_id"]}

    reg = _registry()
    reg.register("hold", hold)
    answers = []
    with MemexSocketServer(reg, workers=2 * cap + 1,
                           metrics=MetricsRegistry()) as srv:
        with _client(srv, max_pooled=cap) as transport:
            def client(t):
                for i in range(10):
                    user = f"user{t}-{i % 3}"
                    answers.append(
                        (user, transport.request(user, {"servlet": "hold"})))

            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(2 * cap)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)   # interleave the pool's updates
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # A lost update to the pool's count would open one more.
        assert srv.metrics.counter_value("net.connections_total") <= cap
    assert len(answers) == 2 * cap * 10
    assert all(out.get("you") == user for user, out in answers)
    assert state["peak"] == cap


# -- rebinding cannot impersonate ----------------------------------------------

ALICE_KEY, CAROL_KEY = b"alices-key", b"carols-key"


def _whoami(user_id, key):
    return encode_message({"servlet": "whoami", "user_id": user_id}, key=key)


def _rebind_alice_to_carol(address):
    """One connection: alice's request, then a hello for carol and the
    two frames carol's session must refuse, then carol's own request
    claiming to be alice.  Returns the four answers."""
    with _hello(address, "alice") as sock:
        sock.sendall(_whoami("alice", ALICE_KEY))
        as_alice = decode_message(recv_frame(sock.recv), key=ALICE_KEY)
        sock.sendall(encode_message({"hello": "carol"}))
        sock.sendall(_whoami("alice", ALICE_KEY))
        under_alices_key = decode_message(recv_frame(sock.recv), key=CAROL_KEY)
        sock.sendall(_whoami("alice", None))
        in_clear = decode_message(recv_frame(sock.recv))
        sock.sendall(_whoami("alice", CAROL_KEY))
        as_carol = decode_message(recv_frame(sock.recv), key=CAROL_KEY)
    return as_alice, under_alices_key, in_clear, as_carol


def test_a_rebound_connection_takes_only_the_new_users_key():
    served = []
    with MemexSocketServer(_recording_registry(served), workers=2) as srv:
        srv.keys.set_key("alice", ALICE_KEY)
        srv.keys.set_key("carol", CAROL_KEY)
        as_alice, under_alices_key, in_clear, _ = _rebind_alice_to_carol(
            srv.address)
    assert as_alice["you"] == "alice"
    assert under_alices_key["error_code"] == "bad_request"
    assert in_clear["error_code"] == "bad_request"
    # The server trusts the payload's user_id (it is no router), but
    # only carol's key reached dispatch after her hello.
    assert len(served) == 2


def test_through_the_router_carols_answers_never_carry_alices_id():
    served = []
    with ShardRouter(
        [LocalBackend(_recording_registry(served))], workers=2,
    ) as router:
        router.set_key("alice", ALICE_KEY)
        router.set_key("carol", CAROL_KEY)
        as_alice, under_alices_key, in_clear, as_carol = (
            _rebind_alice_to_carol(router.address))
    assert as_alice["you"] == "alice"
    assert under_alices_key["error_code"] == "bad_request"
    assert in_clear["error_code"] == "bad_request"
    assert as_carol["you"] == "carol"
    assert [req["user_id"] for req in served] == ["alice", "carol"]


def test_a_malformed_hello_mid_stream_is_an_error_and_a_close(server):
    with _hello(server.address, "alice") as sock:
        sock.sendall(_whoami("alice", None))
        assert decode_message(recv_frame(sock.recv))["you"] == "alice"
        sock.sendall(encode_message({"hello": 42}))
        response = decode_message(recv_frame(sock.recv))
        assert response["error_code"] == "bad_request"
        assert "hello" in response["error"]
        assert sock.recv(1) == b""


def test_shard_workers_hold_no_keys_so_the_hop_says_hello_as_the_user():
    """The router terminates every key.  Its backend transports say hello
    as the real user, which works because no worker's key source holds
    a key; a shard sees at most its pool cap of router connections."""
    from repro.core.memex import MemexServer

    shards = [MemexServer(lambda url: None) for _ in range(2)]
    nets = [shard.listen(workers=2) for shard in shards]
    backends = [SocketTransport(*net.address, max_pooled=1) for net in nets]
    users = {f"user{i}": f"key-{i}".encode() for i in range(6)}
    try:
        with ShardRouter(backends, workers=2) as router:
            with SocketTransport(*router.address) as transport:
                for user, key in users.items():
                    router.set_key(user, key)
                    transport.set_key(user, key)
                    assert transport.request(
                        user, {"servlet": "register_user"})["status"] == "ok"
                for user in users:
                    assert transport.request(user, {
                        "servlet": "visit", "url": "http://p/", "at": 1.0,
                    })["status"] == "ok"
                    assert transport.request(
                        user, {"servlet": "stats"})["partial"] is False
    finally:
        for backend in backends:
            backend.close()
        for net in nets:
            net.close()
    for user in users:
        assert [len(shard.repo.user_visits(user)) for shard in shards] in (
            [1, 0], [0, 1])
    for shard in shards:
        assert all(shard.transport.key_for(user) is None for user in users)
        assert shard.metrics.counter_value("net.connections_total") == 1


# -- the wire's syscall budget and timeouts ------------------------------------

class _CountingSocket:
    """A real socket that counts the calls each costing one syscall on a
    blocking socket, and every call that sets a timeout."""

    COUNTED = ("recv", "recv_into", "send", "sendall",
               "settimeout", "setblocking", "setsockopt")

    def __init__(self, sock):
        self._sock = sock
        self.calls = dict.fromkeys(self.COUNTED + ("close",), 0)

    def __getattr__(self, name):
        attr = getattr(self._sock, name)
        if name not in self.calls:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)
        return counted

    def reads(self):
        return self.calls["recv"] + self.calls["recv_into"]

    def writes(self):
        return self.calls["send"] + self.calls["sendall"]

    def timeout_calls(self):
        return (self.calls["settimeout"] + self.calls["setblocking"]
                + self.calls["setsockopt"])


def _until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.005)


@pytest.mark.parametrize("requests", [1, 6])
def test_a_frame_costs_one_read_and_one_write_at_both_ends(monkeypatch, requests):
    """Each end's sockets are blocking — no poll per call — and a request
    is one read and one write on the server and on the client, with no
    timeout set per frame; the hello shares its request's read."""
    accepted, connected = [], []
    real_accept = socket.socket.accept
    real_connect = transport_module.socket.create_connection

    def accept(listener):
        conn, addr = real_accept(listener)
        accepted.append(_CountingSocket(conn))
        return accepted[-1], addr

    def create_connection(*args, **kwargs):
        connected.append(_CountingSocket(real_connect(*args, **kwargs)))
        return connected[-1]

    monkeypatch.setattr(socket.socket, "accept", accept)
    monkeypatch.setattr(transport_module.socket, "create_connection",
                        create_connection)
    with MemexSocketServer(_registry(), workers=1) as srv:
        with _client(srv) as transport:
            for i in range(requests):
                assert transport.request(
                    "alice", {"servlet": "echo", "value": i})["echo"] == i
            [client] = connected
            assert client.gettimeout() is None      # blocking: no poll
            assert (client.reads(), client.writes()) == (requests, requests)
            # Once, when it connected: blocking, SO_RCVTIMEO, SO_SNDTIMEO.
            assert client.timeout_calls() == 3
        [server] = accepted
        _until(lambda: server.calls["close"])   # the server read our EOF
        assert server.gettimeout() is None
        assert (server.reads(), server.writes()) == (requests + 1, requests)
        assert server.timeout_calls() == 3


def _served(sock, *values):
    return [decode_message(recv_frame(sock.recv))["echo"] for _ in values]


def test_a_frame_split_at_every_byte_boundary_is_served():
    frame = encode_message(
        {"servlet": "echo", "user_id": "alice", "value": "split"})
    with MemexSocketServer(_registry(), workers=1) as srv:
        with _hello(srv.address, "alice") as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for cut in range(1, len(frame)):
                sock.sendall(frame[:cut])
                time.sleep(0.002)   # the server reads the first part alone
                sock.sendall(frame[cut:])
                assert _served(sock, "split") == ["split"]


def test_a_hello_and_two_requests_in_one_segment_are_answered_in_order():
    with MemexSocketServer(_registry(), workers=1) as srv:
        with socket.create_connection(srv.address, timeout=5.0) as sock:
            sock.sendall(
                encode_message({"hello": "alice"})
                + encode_message({"servlet": "echo", "value": 1})
                + encode_message({"servlet": "echo", "value": 2}))
            assert _served(sock, 1, 2) == [1, 2]


def test_a_frame_larger_than_the_buffer_is_read_whole():
    """Longer than a connection's receive buffer, at both ends, and
    arriving behind a small frame in the same write (so its header sits
    mid-buffer) and ahead of another."""
    big = "x" * 100_000   # over six receive buffers
    with MemexSocketServer(_registry(), workers=1) as srv:
        with _client(srv) as transport:
            for value in (big, "small", big):
                assert transport.request(
                    "alice", {"servlet": "echo", "value": value})["echo"] == value
        with _hello(srv.address, "alice") as sock:
            sock.sendall(b"".join(
                encode_message({"servlet": "echo", "value": value})
                for value in ("a", big, "b")))
            assert _served(sock, "a", big, "b") == ["a", big, "b"]


def _stalled_for(sock, partial_frame):
    """Send *partial_frame* and stall: the typed error that comes back,
    and how long it took."""
    sock.sendall(partial_frame)
    started = time.monotonic()
    response = decode_message(recv_frame(sock.recv))
    return response, time.monotonic() - started


def test_a_mid_frame_stall_times_out_after_read_timeout(monkeypatch):
    """Only a started frame waits READ_TIMEOUT: between frames the idle
    timeout holds, also after a frame that arrived in pieces."""
    monkeypatch.setattr(MemexSocketServer, "READ_TIMEOUT", 0.15)
    frame = encode_message({"servlet": "echo", "user_id": "a", "value": 1})
    with MemexSocketServer(
        _registry(), workers=1, idle_timeout=5.0, metrics=MetricsRegistry(),
    ) as srv:
        with _hello(srv.address, "a") as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(frame[:7])
            time.sleep(0.05)
            sock.sendall(frame[7:])
            assert _served(sock, 1) == [1]
            time.sleep(0.4)   # past READ_TIMEOUT, idle between frames
            sock.sendall(frame)
            assert _served(sock, 1) == [1]
            response, waited = _stalled_for(sock, frame[:-3])
            assert response["error_code"] == CODE_TIMEOUT
            assert response["retryable"] is True
            assert 0.1 < waited < 2.0
            assert sock.recv(1) == b""
        assert srv.metrics.counter_value("net.timeouts_total") == 1


def test_a_stall_inside_a_frame_header_is_mid_frame(monkeypatch):
    """Part of a header is part of a frame: it waits READ_TIMEOUT, not
    the idle timeout, and earns the typed error."""
    monkeypatch.setattr(MemexSocketServer, "READ_TIMEOUT", 0.15)
    with MemexSocketServer(
        _registry(), workers=1, idle_timeout=5.0, metrics=MetricsRegistry(),
    ) as srv:
        with _hello(srv.address, "a") as sock:
            response, waited = _stalled_for(sock, encode_message({})[:2])
            assert response["error_code"] == CODE_TIMEOUT
            assert 0.1 < waited < 2.0
        assert srv.metrics.counter_value("net.timeouts_total") == 1


def test_an_idle_connection_closes_quietly_after_idle_timeout():
    with MemexSocketServer(
        _registry(), workers=1, idle_timeout=0.3, metrics=MetricsRegistry(),
    ) as srv:
        with _hello(srv.address, "alice") as sock:
            sock.sendall(encode_message({"servlet": "echo", "value": 1}))
            assert _served(sock, 1) == [1]
            started = time.monotonic()
            assert sock.recv(1) == b""   # no error frame, just the close
            assert 0.25 < time.monotonic() - started < 3.0
        assert srv.metrics.counter_value("net.timeouts_total") == 0


def test_a_server_that_never_answers_is_a_retryable_timeout():
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()
    hung_up = threading.Event()

    def read_the_request_and_say_nothing():
        conn, _ = listener.accept()
        with conn:
            recv_frame(conn.recv)   # the hello
            recv_frame(conn.recv)   # the request
            hung_up.wait(5.0)

    t = threading.Thread(target=read_the_request_and_say_nothing)
    t.start()
    try:
        with SocketTransport(host, port, response_timeout=0.2) as transport:
            started = time.monotonic()
            with pytest.raises(ProtocolError) as err:
                transport.request("alice", {"servlet": "whoami"})
            waited = time.monotonic() - started
        assert err.value.code == CODE_TIMEOUT
        assert err.value.code in RETRYABLE_CODES
        assert "timed out" in str(err.value)
        assert 0.15 < waited < 2.0
    finally:
        hung_up.set()
        t.join(timeout=5.0)
        listener.close()
    assert not t.is_alive()
