"""Client-side connection pooling: :class:`TransportPool` and the
socket transport's LRU pool cap / chaos drop hooks.

The load harness speaks for hundreds of scheduled users; these tests
pin the two mechanisms that keep that affordable — stable user→member
sharding across independent transports, and the per-transport LRU cap
that bounds pooled sockets (never cutting an in-flight request) — plus
the ``drop_connections`` chaos hook in both its full-close and
half-close (poisoned connection) variants.
"""

import threading
import zlib

import pytest

from repro.client import TransportPool
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


# -- TransportPool ------------------------------------------------------------


class TestTransportPool:
    def test_member_mapping_is_stable_and_spread(self, server):
        host, port = server.address
        with TransportPool(host, port, size=4) as pool:
            users = [f"u{i:07d}" for i in range(100)]
            # Stable: crc32, never the per-process salted hash().
            for user in users:
                expected = zlib.crc32(user.encode()) % 4
                assert pool._member(user) is pool.transports[expected]
                assert pool._member(user) is pool._member(user)
            # Spread: 100 users land on every member.
            hit = {id(pool._member(u)) for u in users}
            assert len(hit) == 4

    def test_satisfies_transport_protocol(self, server):
        host, port = server.address
        with TransportPool(host, port, size=3) as pool:
            out = pool.request("alice", {"servlet": "whoami"})
            assert out["status"] == "ok" and out["you"] == "alice"
            batch = pool.request_batch(
                "bob", [{"servlet": "echo", "value": i} for i in range(3)],
            )
            assert [r["echo"] for r in batch] == [0, 1, 2]
            pool.set_key("carol", None)
            assert pool.key_for("carol") is None
            assert pool.bytes_in > 0 and pool.bytes_out > 0

    def test_total_sockets_bounded_by_size_times_cap(self, server):
        host, port = server.address
        with TransportPool(host, port, size=2, max_pooled=3) as pool:
            for i in range(40):
                pool.request(f"u{i:07d}", {"servlet": "whoami"})
            pooled = sum(len(t._conns) for t in pool.transports)
            assert pooled <= 2 * 3

    def test_drop_connections_fans_out(self, server):
        host, port = server.address
        with TransportPool(host, port, size=3) as pool:
            users = [f"u{i:07d}" for i in range(9)]
            for user in users:
                pool.request(user, {"servlet": "whoami"})
            dropped = pool.drop_connections()
            assert dropped == 9
            assert sum(len(t._conns) for t in pool.transports) == 0
            # Transparent reconnect afterwards.
            assert pool.request(users[0], {"servlet": "whoami"})["you"] == users[0]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            TransportPool("127.0.0.1", 1, size=0)


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


# -- drop_connections chaos hook ----------------------------------------------


class TestDropConnections:
    def test_full_close_empties_pool_and_reconnects(self, server):
        host, port = server.address
        with SocketTransport(host, port) as transport:
            for user in ("a", "b"):
                transport.request(user, {"servlet": "whoami"})
            assert transport.drop_connections() == 2
            assert transport._conns == {}
            assert transport.request("a", {"servlet": "whoami"})["you"] == "a"

    def test_half_close_poisons_then_recovers(self, server):
        host, port = server.address
        with SocketTransport(host, port) as transport:
            transport.request("a", {"servlet": "whoami"})
            assert transport.drop_connections(half_close=True) == 1
            # The poisoned connection stays pooled: the next request on
            # it fails retryably (the mid-request connection-reset path)
            # and the one after reconnects cleanly.
            assert "a" in transport._conns
            with pytest.raises(ProtocolError) as exc:
                transport.request("a", {"servlet": "whoami"})
            assert exc.value.code in RETRYABLE_CODES
            assert transport.request("a", {"servlet": "whoami"})["you"] == "a"

    def test_drop_on_empty_pool_is_a_noop(self, server):
        host, port = server.address
        with SocketTransport(host, port) as transport:
            assert transport.drop_connections() == 0
            assert transport.drop_connections(half_close=True) == 0
