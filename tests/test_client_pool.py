"""Client-side connection pooling in :class:`SocketTransport`.

A load client or a cluster's own transport speaks for hundreds of users
through one pool; these tests pin which connection a request borrows,
the cap that bounds open sockets (never cutting an in-flight request),
and that a pooled connection the server has hung up on fails retryably
once and then reconnects.  Counts come from the server's
``net.connections_total`` and the transport's ``bytes_out``.
"""

import socket
import threading
import time

import pytest

from repro.errors import RETRYABLE_CODES, ProtocolError
from repro.obs import MetricsRegistry
from repro.server.netserver import MemexSocketServer
from repro.server import protocol
from repro.server.protocol import encode_message
from repro.server.servlets import ServletRegistry
from repro.server.transport import SocketTransport

#: Released by a test to let every ``hold`` request answer.
_release = threading.Event()
#: A ``meet`` request answers once twelve are in flight together.
_twelve = threading.Barrier(12)


def _answer_when(wait):
    def servlet(req):
        wait(5.0)
        return {"you": req["user_id"]}
    return servlet


def _registry():
    reg = ServletRegistry()
    reg.register("whoami", lambda req: {"you": req["user_id"]})
    reg.register("hold", _answer_when(_release.wait))
    reg.register("meet", _answer_when(_twelve.wait))
    return reg


@pytest.fixture()
def server():
    # One worker is parked per open connection, and the tests below hold
    # up to 12 open at once.
    _release.clear()
    _twelve.reset()
    with MemexSocketServer(
        _registry(), workers=16, metrics=MetricsRegistry(),
    ) as srv:
        yield srv
    _release.set()


def _connections(server):
    return server.metrics.counter_value("net.connections_total")


def _in_background(transport, user, payload, answers):
    thread = threading.Thread(
        target=lambda: answers.append(transport.request(user, payload)))
    thread.start()
    return thread


def _wire(user, payload):
    """The bytes a keyless request for *user* puts on the wire."""
    return len(encode_message({**payload, "user_id": user}))


# -- which connection a request borrows, and the cap ---------------------------


class TestPoolCap:
    def test_a_user_takes_back_the_connection_bound_to_it(self, server):
        host, port = server.address
        whoami = {"servlet": "whoami"}
        hello = {u: len(encode_message({"hello": u})) for u in "abc"}
        with SocketTransport(host, port, max_pooled=2) as transport:
            # Two requests in flight at once: two connections, bound to
            # "a" and "b".
            answers = []
            threads = [
                _in_background(transport, user, {"servlet": "hold"}, answers)
                for user in "ab"]
            time.sleep(0.1)
            _release.set()
            for thread in threads:
                thread.join(timeout=5.0)
            assert sorted(out["you"] for out in answers) == ["a", "b"]

            def sent(user):
                before = transport.bytes_out
                assert transport.request(user, whoami)["you"] == user
                return transport.bytes_out - before

            # Each finds its own connection: no hello.
            assert sent("a") == _wire("a", whoami)
            assert sent("b") == _wire("b", whoami)
            # "c" has none and takes the most recently used, behind a
            # hello; "a"'s connection is still bound to "a".
            assert sent("c") == hello["c"] + _wire("c", whoami)
            assert sent("a") == _wire("a", whoami)
        assert _connections(server) == 2

    def test_evicted_user_reconnects_transparently(self, server):
        """A user whose connection another user took is served on it
        again, behind a hello; no second connection is opened."""
        host, port = server.address
        with SocketTransport(host, port, max_pooled=1) as transport:
            assert transport.request("a", {"servlet": "whoami"})["you"] == "a"
            assert transport.request("b", {"servlet": "whoami"})["you"] == "b"
            assert transport.request("a", {"servlet": "whoami"})["you"] == "a"
        assert _connections(server) == 1

    def test_in_flight_connection_is_never_cut(self, server):
        host, port = server.address
        with SocketTransport(host, port, max_pooled=1) as transport:
            answers = []
            holder = _in_background(transport, "a", {"servlet": "hold"}, answers)
            time.sleep(0.1)
            # "b" is over the cap while "a" holds the one connection: it
            # waits for it rather than opening or cutting one.
            waiter = _in_background(transport, "b", {"servlet": "whoami"}, answers)
            waiter.join(timeout=0.2)
            assert waiter.is_alive() and answers == []
            _release.set()
            holder.join(timeout=5.0)
            waiter.join(timeout=5.0)
        assert [out["you"] for out in answers] == ["a", "b"]
        assert _connections(server) == 1

    def test_a_request_too_large_to_frame_gives_its_connection_back(
        self, server, monkeypatch,
    ):
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 512)
        host, port = server.address
        with SocketTransport(host, port, max_pooled=1) as transport:
            with pytest.raises(ProtocolError, match="too large"):
                transport.request("a", {"servlet": "whoami", "blob": "x" * 600})
            # The one connection the cap allows is free again.
            answers = []
            _in_background(transport, "a", {"servlet": "whoami"},
                           answers).join(timeout=5.0)
        assert [out["you"] for out in answers] == ["a"]

    def test_zero_cap_means_unbounded(self, server):
        host, port = server.address
        with SocketTransport(host, port) as transport:
            answers = []
            threads = [
                _in_background(transport, f"u{i}", {"servlet": "meet"}, answers)
                for i in range(12)]
            for thread in threads:
                thread.join(timeout=10.0)
        # All twelve were in flight at once, each on its own connection.
        assert sorted(out["you"] for out in answers) == sorted(
            f"u{i}" for i in range(12))
        assert _connections(server) == 12
        with pytest.raises(ValueError):
            SocketTransport(host, port, max_pooled=-1)


# -- a half-closed pooled connection -----------------------------------------


class TestDropConnections:
    def test_half_close_poisons_then_recovers(self, server):
        host, port = server.address
        with SocketTransport(host, port) as transport:
            transport.request("a", {"servlet": "whoami"})
            # Shut the pooled socket's write side: the server sees EOF
            # and hangs up while the connection stays pooled.
            transport._idle[-1].sock.shutdown(socket.SHUT_WR)
            # The next request on it fails retryably (the mid-request
            # connection-reset path) and the one after reconnects cleanly.
            with pytest.raises(ProtocolError) as exc:
                transport.request("a", {"servlet": "whoami"})
            assert exc.value.code in RETRYABLE_CODES
            assert transport.request("a", {"servlet": "whoami"})["you"] == "a"
        assert _connections(server) == 2
