"""Client-side connection pooling in :class:`SocketTransport`.

A load client or a cluster's own transport speaks for hundreds of
users; these tests pin the LRU cap that bounds pooled sockets (never
cutting an in-flight request), and that a pooled connection the server
has hung up on fails retryably once and then reconnects.
"""

import socket
import threading

import pytest

from repro.errors import RETRYABLE_CODES, ProtocolError
from repro.obs import MetricsRegistry
from repro.server.netserver import MemexSocketServer
from repro.server.servlets import ServletRegistry
from repro.server.transport import SocketTransport


def _registry():
    reg = ServletRegistry()
    reg.register("whoami", lambda req: {"you": req["user_id"]})
    reg.register("echo", lambda req: {"echo": req.get("value")})
    return reg


@pytest.fixture()
def server():
    # One worker is parked per open connection and the tests below hold
    # up to 12 open at once; with fewer workers than that, the extra
    # connections wait out the 30 s idle timeout of earlier ones.
    with MemexSocketServer(
        _registry(), workers=16, metrics=MetricsRegistry(),
    ) as srv:
        yield srv


# -- SocketTransport LRU cap --------------------------------------------------


class TestPoolCap:
    def test_cap_evicts_least_recently_used(self, server):
        host, port = server.address
        with SocketTransport(host, port, max_pooled=2) as transport:
            for user in ("a", "b", "c"):
                transport.request(user, {"servlet": "whoami"})
            # "a" was least recently used and got evicted.
            assert set(transport._conns) == {"b", "c"}
            # Touching "b" refreshes its recency; "d" then evicts "c".
            transport.request("b", {"servlet": "whoami"})
            transport.request("d", {"servlet": "whoami"})
            assert set(transport._conns) == {"b", "d"}

    def test_evicted_user_reconnects_transparently(self, server):
        host, port = server.address
        with SocketTransport(host, port, max_pooled=1) as transport:
            assert transport.request("a", {"servlet": "whoami"})["you"] == "a"
            assert transport.request("b", {"servlet": "whoami"})["you"] == "b"
            assert transport.request("a", {"servlet": "whoami"})["you"] == "a"
            assert len(transport._conns) == 1

    def test_in_flight_connection_is_never_cut(self, server):
        host, port = server.address
        with SocketTransport(host, port, max_pooled=1) as transport:
            transport.request("a", {"servlet": "whoami"})
            conn_a = transport._conns["a"]
            entered = threading.Event()
            release = threading.Event()

            def hold():
                with conn_a.lock:      # simulate an in-flight request on "a"
                    entered.set()
                    release.wait(5.0)

            holder = threading.Thread(target=hold)
            holder.start()
            try:
                assert entered.wait(5.0)
                # "b" exceeds the cap, but the only eviction candidate is
                # busy: the pool temporarily overflows rather than cutting
                # the in-flight connection.
                transport.request("b", {"servlet": "whoami"})
                assert transport._conns["a"] is conn_a
            finally:
                release.set()
                holder.join()

    def test_zero_cap_means_unbounded(self, server):
        host, port = server.address
        with SocketTransport(host, port) as transport:
            for i in range(12):
                transport.request(f"u{i}", {"servlet": "whoami"})
            assert len(transport._conns) == 12
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
            transport._conns["a"].sock.shutdown(socket.SHUT_WR)
            # The next request on it fails retryably (the mid-request
            # connection-reset path) and the one after reconnects cleanly.
            with pytest.raises(ProtocolError) as exc:
                transport.request("a", {"servlet": "whoami"})
            assert exc.value.code in RETRYABLE_CODES
            assert transport.request("a", {"servlet": "whoami"})["you"] == "a"
