"""Client transports: the in-process HTTP tunnel and the socket client.

The client applet serializes every request through the protocol codec
(framing + optional per-user encryption); the 'wire' is either handed
directly to the servlet registry (:class:`HttpTunnelTransport` — tests
exercise the exact encode/decode path a firewalled deployment would,
without sockets) or written to a TCP connection against a
:class:`~repro.server.netserver.MemexSocketServer`
(:class:`SocketTransport`).  Both speak the same bytes, so the applet is
unchanged above the wire.

Both transports are thread-safe: byte counters are lock-protected, and
the socket client serializes frames per connection (one connection per
user, since a connection's cipher key is bound at hello time).
"""

from __future__ import annotations

import copy
import random
import socket
import threading
import time
from typing import Any, Protocol, runtime_checkable

from ..errors import CODE_TIMEOUT, CODE_UNAVAILABLE, ProtocolError, error_payload
from .netserver import Dispatcher, HELLO_KEY
from .protocol import check_key, decode_message, encode_message, recv_frame
from .servlets import BATCH_SERVLET, ServletRegistry


@runtime_checkable
class Transport(Protocol):
    """What :class:`~repro.client.applet.MemexApplet` needs from a wire."""

    def request(self, user_id: str, payload: dict[str, Any]) -> dict[str, Any]: ...

    def request_batch(
        self, user_id: str, payloads: list[dict[str, Any]],
    ) -> list[dict[str, Any]]: ...

    def set_key(self, user_id: str, key: bytes | None) -> None: ...

    def key_for(self, user_id: str) -> bytes | None: ...


def replicate_envelope_failure(
    envelope: dict[str, Any], count: int,
) -> list[dict[str, Any]]:
    """One *independent* copy of a failed batch envelope per slot.

    Each slot must be deep-copied: the envelope can carry nested mutable
    values (e.g. an error ``detail`` dict), and a caller annotating one
    slot's response must not corrupt its siblings.
    """
    return [copy.deepcopy(envelope) for _ in range(count)]


class HttpTunnelTransport:
    """Byte-level request/response channel to a servlet registry.

    Per-user cipher keys are registered out of band (account setup); a
    request from a user with a key on file MUST be encrypted with it
    (``decode_message`` refuses it otherwise: the key is the credential).

    ``dispatcher`` overrides where decoded requests land: the single-
    process server passes its :class:`~repro.shard.gather.
    ShardDispatcher` (over one local backend) so in-process dispatch and
    the shard router share one routing code path.  Without it, requests
    go straight to the registry (the pre-sharding behaviour).
    """

    def __init__(
        self,
        registry: ServletRegistry,
        *,
        dispatcher: Dispatcher | None = None,
    ) -> None:
        self.registry = registry
        self._dispatch = (
            dispatcher.dispatch if dispatcher is not None
            else registry.dispatch
        )
        self._keys: dict[str, bytes] = {}
        self.bytes_in = 0
        self.bytes_out = 0
        # Innermost lock (obs level): guards the byte counters only.
        self._obs_lock = threading.Lock()

    def set_key(self, user_id: str, key: bytes | None) -> None:
        check_key(key)
        if key is None:
            self._keys.pop(user_id, None)
        else:
            self._keys[user_id] = key

    def key_for(self, user_id: str) -> bytes | None:
        return self._keys.get(user_id)

    def _count(self, *, sent: int = 0, received: int = 0) -> None:
        with self._obs_lock:
            self.bytes_out += sent
            self.bytes_in += received

    # -- client side -----------------------------------------------------------

    def request(self, user_id: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request as *user_id*; returns the decoded response."""
        key = self._keys.get(user_id)
        wire = encode_message({**payload, "user_id": user_id}, key=key)
        response_bytes = self._serve(wire, user_id)
        self._count(sent=len(wire), received=len(response_bytes))
        return decode_message(response_bytes, key=key)

    def request_batch(
        self, user_id: str, payloads: list[dict[str, Any]],
    ) -> list[dict[str, Any]]:
        """Ship *payloads* as one framed ``batch`` envelope (one encode,
        one decode, one dispatch round trip); returns one response per
        payload, in order.  An envelope-level failure (e.g. a protocol
        error) is replicated into every slot so callers always get a
        response per item."""
        if not payloads:
            return []
        key = self._keys.get(user_id)
        wire = encode_message({
            "servlet": BATCH_SERVLET,
            "user_id": user_id,
            "requests": payloads,
        }, key=key)
        response_bytes = self._serve(wire, user_id)
        self._count(sent=len(wire), received=len(response_bytes))
        envelope = decode_message(response_bytes, key=key)
        if envelope.get("status") != "ok":
            return replicate_envelope_failure(envelope, len(payloads))
        return envelope["responses"]

    # -- server side --------------------------------------------------------------

    def _serve(self, wire: bytes, claimed_user: str) -> bytes:
        key = self._keys.get(claimed_user)
        try:
            request = decode_message(wire, key=key)
        except ProtocolError as exc:
            return encode_message(error_payload(exc), key=key)
        response = self._dispatch(request)
        return encode_message(response, key=key)


#: A pooled connection unused for longer than this is checked for a
#: server-side close before it carries a request.  Well under any
#: server's idle timeout (30 s by default) and well over the gap
#: between a busy client's requests, which therefore never pay the peek.
_STALE_AFTER_S = 1.0


class _Connection:
    """One established, hello-bound TCP connection (single user)."""

    __slots__ = ("sock", "key", "lock", "last_used")

    def __init__(self, sock: socket.socket, key: bytes | None) -> None:
        self.sock = sock
        self.key = key
        self.lock = threading.Lock()   # one request in flight per conn
        self.last_used = time.monotonic()

    def closed_by_peer(self) -> bool:
        """Has the server hung up on this idle connection?  Called under
        ``lock`` between requests, when nothing is owed to us: a
        readable socket then holds the server's EOF (or junk), never a
        response."""
        try:
            timeout = self.sock.gettimeout()
            self.sock.setblocking(False)
            try:
                self.sock.recv(1, socket.MSG_PEEK)
            finally:
                self.sock.settimeout(timeout)
        except BlockingIOError:
            return False  # open and quiet
        except OSError:
            pass
        return True


class SocketTransport:
    """Client for :class:`~repro.server.netserver.MemexSocketServer`.

    Maintains one lazily-opened connection per user (a connection's
    cipher key is fixed at hello time).  Safe for concurrent use from
    many threads: requests on the same user's connection are serialized
    by a per-connection lock; different users proceed in parallel.

    A broken or timed-out connection is dropped from the pool and the
    failure surfaces as a retryable typed :class:`ProtocolError`; the
    next request for that user reconnects.  A connection the server
    closed while it sat idle is not a failure: one unused for over a
    second is looked at before reuse and reopened *before* the request
    is sent, so no frame ever goes out twice.

    **Reconnect backoff.**  When the backend itself is down, every
    request used to burn a fresh TCP connect attempt — a tight reconnect
    loop that hammers a restarting server.  Connect *failures* (refused,
    unreachable, connect timeout) now arm a capped exponential backoff
    with jitter, shared across users (it is the same dead endpoint):
    until it expires, requests fail fast with a retryable
    ``unavailable`` error and **no** connection attempt.  A successful
    TCP connect disarms it.  Mid-request connection breaks do NOT arm
    backoff — the endpoint accepted the connection, so the immediate
    reconnect-on-next-request behaviour is preserved.

    **Pool cap** (``max_pooled=N``).  One connection per user is fine
    for a handful of applets, but a load client or a cluster's own
    transport speaks for hundreds of users through one transport and
    would otherwise hold one socket (and one server worker thread) per
    user ever seen.  With ``max_pooled=N`` the pool becomes an LRU: opening
    a connection beyond the cap evicts the least-recently-used *idle*
    connection (one whose per-connection lock is not held — an in-
    flight request is never cut).  The next request for an evicted user
    transparently reconnects.

    **Multiplex mode** (``multiplex=N``, internal hops only).  The
    per-user connection exists to bind a cipher key at hello time; on a
    trusted *cleartext* hop — the router's links to its shard workers —
    it only wastes server worker threads, which are held one per open
    connection.  With ``multiplex=N`` the transport instead keeps at
    most N connections, hello-bound to synthetic slot users
    (``__mux__0``..), and round-robins requests across them; every
    payload still carries the real ``user_id``, which the shard worker
    trusts because it does not run with ``authoritative_user``.  Do NOT
    multiplex a client-facing transport: per-user cipher keys are
    ignored on the hop.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        response_timeout: float = 30.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        backoff_rng: random.Random | None = None,
        multiplex: int = 0,
        multiplex_label: str = "__mux__",
        max_pooled: int = 0,
    ) -> None:
        if multiplex < 0:
            raise ValueError("multiplex must be >= 0")
        if max_pooled < 0:
            raise ValueError("max_pooled must be >= 0 (0 = unbounded)")
        self.max_pooled = max_pooled
        self.host = host
        self.port = port
        self.multiplex = multiplex
        self.multiplex_label = multiplex_label
        self._mux_next = 0
        self.connect_timeout = connect_timeout
        self.response_timeout = response_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._backoff_rng = backoff_rng if backoff_rng is not None else random.Random()
        self._backoff_failures = 0
        self._backoff_until = 0.0     # monotonic deadline; 0 = disarmed
        self._keys: dict[str, bytes] = {}
        self._conns: dict[str, _Connection] = {}
        # Guards _conns, _keys, and the backoff state.
        self._pool_lock = threading.Lock()
        self.bytes_in = 0
        self.bytes_out = 0
        self._obs_lock = threading.Lock()

    # -- keys / lifecycle ----------------------------------------------------

    def set_key(self, user_id: str, key: bytes | None) -> None:
        check_key(key)
        with self._pool_lock:
            if key is None:
                self._keys.pop(user_id, None)
            else:
                self._keys[user_id] = key
            # The old connection (if any) was bound to the old key.
            stale = self._conns.pop(user_id, None)
        if stale is not None:
            self._discard(stale)

    def key_for(self, user_id: str) -> bytes | None:
        with self._pool_lock:
            return self._keys.get(user_id)

    def close(self) -> None:
        with self._pool_lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for conn in conns:
            self._discard(conn)

    def reset_backoff(self) -> None:
        """Disarm the reconnect backoff (e.g. the supervisor knows the
        backend just restarted and is accepting again)."""
        with self._pool_lock:
            self._backoff_failures = 0
            self._backoff_until = 0.0

    def set_address(self, host: str, port: int) -> None:
        """Re-point this transport at a (re)started backend: drops every
        pooled connection and disarms the backoff."""
        with self._pool_lock:
            self.host = host
            self.port = port
            self._backoff_failures = 0
            self._backoff_until = 0.0
            conns = list(self._conns.values())
            self._conns.clear()
        for conn in conns:
            self._discard(conn)

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @staticmethod
    def _discard(conn: _Connection) -> None:
        try:
            conn.sock.close()
        except OSError:
            pass

    def _count(self, *, sent: int = 0, received: int = 0) -> None:
        with self._obs_lock:
            self.bytes_out += sent
            self.bytes_in += received

    # -- connection management ----------------------------------------------

    def _connection(self, user_id: str) -> _Connection:
        with self._pool_lock:
            conn = self._conns.get(user_id)
            if conn is not None:
                if self.max_pooled:
                    # LRU recency: move the hit to the back of the dict.
                    self._conns[user_id] = self._conns.pop(user_id)
                return conn
            key = self._keys.get(user_id)
        conn = _Connection(self._open(user_id, key), key)
        evicted: list[_Connection] = []
        with self._pool_lock:
            existing = self._conns.get(user_id)
            if existing is not None:
                # Raced with another thread; keep theirs.
                stale, conn = conn, existing
            else:
                self._conns[user_id] = conn
                stale = None
                evicted = self._evict_over_cap(keep=user_id)
        if stale is not None:
            self._discard(stale)
        for old in evicted:
            self._discard(old)
        return conn

    def _evict_over_cap(self, *, keep: str) -> list[_Connection]:
        """Called under ``_pool_lock``: shrink the pool to ``max_pooled``
        by dropping least-recently-used connections, skipping *keep*
        (just inserted for the active request) and any connection whose
        lock is held (a request is in flight on it)."""
        if not self.max_pooled:
            return []
        evicted: list[_Connection] = []
        for uid in list(self._conns):
            if len(self._conns) <= self.max_pooled:
                break
            if uid == keep:
                continue
            conn = self._conns[uid]
            if conn.lock.locked():
                continue
            del self._conns[uid]
            evicted.append(conn)
        return evicted

    def _open(self, user_id: str, key: bytes | None) -> socket.socket:
        """Connect and say hello as *user_id*; the socket is ready for
        that user's first request frame."""
        with self._pool_lock:
            suppressed_until = self._backoff_until
        if self._backoff_failures and time.monotonic() < suppressed_until:
            # Fail fast without touching the socket: the endpoint was
            # down moments ago and the backoff window has not expired.
            raise ProtocolError(
                f"backend {self.host}:{self.port} is down; retrying after "
                "backoff",
                code=CODE_UNAVAILABLE,
            )
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout,
            )
        except OSError as exc:
            with self._pool_lock:
                self._backoff_failures += 1
                delay = min(
                    self.backoff_cap,
                    self.backoff_base * 2 ** (self._backoff_failures - 1),
                ) * (0.5 + 0.5 * self._backoff_rng.random())
                self._backoff_until = time.monotonic() + delay
            raise ProtocolError(
                f"cannot connect to {self.host}:{self.port}: {exc}",
                code=CODE_TIMEOUT,
            ) from exc
        with self._pool_lock:
            # The endpoint is accepting again: disarm the backoff.
            self._backoff_failures = 0
            self._backoff_until = 0.0
        sock.settimeout(self.response_timeout)
        try:
            hello = encode_message({HELLO_KEY: user_id})
            sock.sendall(hello)
            raw = recv_frame(sock.recv)
            if raw is None:
                raise ProtocolError("server closed connection during hello")
            self._count(sent=len(hello), received=len(raw))
            ack = decode_message(raw)
            if ack.get("status") != "ok":
                raise ProtocolError(f"hello rejected: {ack.get('error', ack)}")
            if ack.get("encrypted") and key is None:
                raise ProtocolError(
                    f"server expects encrypted traffic for {user_id!r} "
                    "but no key is registered on this transport"
                )
        except (OSError, ProtocolError):
            sock.close()
            raise
        return sock

    def _drop(self, user_id: str, conn: _Connection) -> None:
        with self._pool_lock:
            if self._conns.get(user_id) is conn:
                del self._conns[user_id]
        self._discard(conn)

    # -- request path --------------------------------------------------------

    def _conn_user(self, user_id: str) -> str:
        """The hello identity a request travels under: the user itself,
        or (multiplex mode) the next round-robin slot user."""
        if not self.multiplex:
            return user_id
        with self._pool_lock:
            slot = self._mux_next
            self._mux_next = (slot + 1) % self.multiplex
        return f"{self.multiplex_label}{slot}"

    def _exchange(
        self, user_id: str, payload: dict[str, Any],
    ) -> dict[str, Any]:
        conn = self._connection(user_id)
        wire = encode_message(payload, key=conn.key)
        try:
            with conn.lock:
                if (time.monotonic() - conn.last_used > _STALE_AFTER_S
                        and conn.closed_by_peer()):
                    # The server idled this connection out.  Nothing of
                    # this request has been sent, so reconnecting here
                    # cannot deliver a frame twice (a visit batch is not
                    # idempotent); once it has, a break is the caller's.
                    self._discard(conn)
                    conn.sock = self._open(user_id, conn.key)
                conn.sock.sendall(wire)
                raw = recv_frame(conn.sock.recv)
                conn.last_used = time.monotonic()
        except socket.timeout:
            self._drop(user_id, conn)
            raise ProtocolError(
                f"timed out after {self.response_timeout}s waiting for response",
                code=CODE_TIMEOUT,
            ) from None
        except OSError as exc:
            # A broken connection surfaces as a retryable typed error; the
            # next request for this user reconnects.
            self._drop(user_id, conn)
            raise ProtocolError(
                f"connection to {self.host}:{self.port} broke: {exc}",
                code=CODE_TIMEOUT,
            ) from exc
        except ProtocolError:
            self._drop(user_id, conn)
            raise
        if raw is None:
            self._drop(user_id, conn)
            raise ProtocolError(
                "server closed connection mid-request", code=CODE_TIMEOUT)
        self._count(sent=len(wire), received=len(raw))
        return decode_message(raw, key=conn.key)

    def request(self, user_id: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request as *user_id*; returns the decoded response."""
        return self._exchange(self._conn_user(user_id),
                              {**payload, "user_id": user_id})

    def request_batch(
        self, user_id: str, payloads: list[dict[str, Any]],
    ) -> list[dict[str, Any]]:
        """One framed ``batch`` envelope over the socket; one response
        per payload, envelope-level failures replicated per slot."""
        if not payloads:
            return []
        envelope = self._exchange(self._conn_user(user_id), {
            "servlet": BATCH_SERVLET,
            "user_id": user_id,
            "requests": payloads,
        })
        if envelope.get("status") != "ok":
            return replicate_envelope_failure(envelope, len(payloads))
        return envelope["responses"]
