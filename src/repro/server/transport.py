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
the socket client lends each pooled connection to one request at a
time.  A connection is not a user: it carries whichever user its last
hello named, and a request for another user goes out behind a new one.
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
from .protocol import (
    FrameReader,
    check_key,
    decode_message,
    encode_message,
    set_kernel_timeouts,
)
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
    """One pooled TCP connection, lent to one request at a time."""

    __slots__ = ("sock", "reader", "user", "key", "last_used", "epoch")

    def __init__(self, epoch: int) -> None:
        self.sock: socket.socket | None = None  # the borrower connects
        self.reader: FrameReader | None = None  # ... and reads it with this
        self.user: str | None = None  # named by the last hello sent
        self.key: bytes | None = None  # ... and the key it was sent with
        self.last_used = 0.0
        self.epoch = epoch  # close() retires every earlier epoch

    def closed_by_peer(self) -> bool:
        """Has the server hung up on this idle connection?  Called by
        its borrower before it sends, when nothing is owed to us: a
        readable socket then holds the server's EOF (or junk), never a
        response."""
        try:
            self.sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
        except BlockingIOError:
            return False  # open and quiet
        except OSError:
            pass
        return True


class SocketTransport:
    """Client for :class:`~repro.server.netserver.MemexSocketServer`.

    Keeps one pool of connections for every user.  A request borrows an
    idle connection whose last hello named its user if there is one,
    else the most recently used idle one, else opens one (a plain TCP
    connect).  When the borrowed connection speaks for someone else —
    or for this user under an older key — the request goes out behind a
    ``{"hello": user}`` frame, in the same write; the server answers
    only the request.  Safe for concurrent use from many threads: each
    request owns its connection until the response is in, so the pool
    holds about as many connections as requests were ever in flight at
    once, not one per user.

    A broken or timed-out connection is dropped from the pool and the
    failure surfaces as a retryable typed :class:`ProtocolError`; the
    next request opens another.  A connection the server closed while it
    sat idle is not a failure: one unused for over a second is looked at
    before reuse and reopened *before* the request is sent, so no frame
    ever goes out twice.

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

    **Pool cap** (``max_pooled=N``).  A server parks one worker thread
    per open connection, so a client that shares a server with others
    caps what it holds: with ``max_pooled=N`` at most N connections are
    open at once, and a request beyond them waits for one to come back.
    An in-flight connection is never cut.  ``0`` means no cap.
    """

    #: First reconnect backoff after a failed connect, in seconds; each
    #: further failure in a row doubles it, up to :attr:`BACKOFF_CAP`.
    BACKOFF_BASE = 0.05
    BACKOFF_CAP = 2.0
    #: Jitter source: each backoff is scaled by a draw in [0.5, 1.0).
    BACKOFF_RNG = random.Random()

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        response_timeout: float = 30.0,
        max_pooled: int = 0,
    ) -> None:
        if max_pooled < 0:
            raise ValueError("max_pooled must be >= 0 (0 = unbounded)")
        self.max_pooled = max_pooled
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.response_timeout = response_timeout
        self._backoff_failures = 0
        self._backoff_until = 0.0     # monotonic deadline; 0 = disarmed
        self._keys: dict[str, bytes] = {}
        self._idle: list[_Connection] = []  # most recently used last
        self._open_count = 0  # idle + lent out
        self._epoch = 0
        self._waiting = 0  # requests blocked at the cap
        # Guards _keys, the pool fields above, and the backoff state.
        self._pool_lock = threading.Lock()
        self._returned = threading.Condition(self._pool_lock)
        self.bytes_in = 0
        self.bytes_out = 0
        self._obs_lock = threading.Lock()

    # -- keys / lifecycle ----------------------------------------------------

    def set_key(self, user_id: str, key: bytes | None) -> None:
        """Register *user_id*'s key.  A connection that last said hello
        under the old key says it again, so the server looks up the new
        one."""
        check_key(key)
        with self._pool_lock:
            if key is None:
                self._keys.pop(user_id, None)
            else:
                self._keys[user_id] = key

    def key_for(self, user_id: str) -> bytes | None:
        with self._pool_lock:
            return self._keys.get(user_id)

    def close(self) -> None:
        """Close every idle connection; one lent out closes when its
        request is done."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
            self._open_count -= len(idle)
            self._epoch += 1
            if self._waiting:
                self._returned.notify_all()
        for conn in idle:
            self._discard(conn)

    def reset_backoff(self) -> None:
        """Disarm the reconnect backoff (e.g. the supervisor knows the
        backend just restarted and is accepting again)."""
        with self._pool_lock:
            self._backoff_failures = 0
            self._backoff_until = 0.0

    def set_address(self, host: str, port: int) -> None:
        """Re-point this transport at a (re)started backend: retires
        every pooled connection and disarms the backoff."""
        with self._pool_lock:
            self.host = host
            self.port = port
            self._backoff_failures = 0
            self._backoff_until = 0.0
        self.close()

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @staticmethod
    def _discard(conn: _Connection) -> None:
        if conn.sock is None:
            return
        try:
            conn.sock.close()
        except OSError:
            pass

    def _count(self, *, sent: int = 0, received: int = 0) -> None:
        with self._obs_lock:
            self.bytes_out += sent
            self.bytes_in += received

    # -- connection management ----------------------------------------------

    def _borrow(self, user_id: str) -> tuple[_Connection, bytes | None]:
        """A connection for one request as *user_id*, and that user's key."""
        with self._pool_lock:
            key = self._keys.get(user_id)
            while True:
                idle = self._idle
                for i in range(len(idle) - 1, -1, -1):
                    if idle[i].user == user_id:
                        return idle.pop(i), key
                if idle:
                    return idle.pop(), key
                if not self.max_pooled or self._open_count < self.max_pooled:
                    self._open_count += 1
                    return _Connection(self._epoch), key
                self._waiting += 1
                self._returned.wait()
                self._waiting -= 1

    def _give_back(self, conn: _Connection, *, reuse: bool) -> None:
        """Return a borrowed connection to the pool, or close it."""
        with self._pool_lock:
            if reuse and conn.epoch == self._epoch:
                self._idle.append(conn)
            else:
                self._open_count -= 1
                reuse = False
            if self._waiting:
                self._returned.notify()
        if not reuse:
            self._discard(conn)

    def _open(self) -> socket.socket:
        """A plain TCP connection, bound to no user yet, connected under
        ``connect_timeout``; the kernel bounds each later receive and
        send by ``response_timeout``."""
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
            try:
                set_kernel_timeouts(sock, recv=self.response_timeout,
                                    send=self.response_timeout)
            except OSError:
                sock.close()
                raise
        except OSError as exc:
            with self._pool_lock:
                self._backoff_failures += 1
                delay = min(
                    self.BACKOFF_CAP,
                    self.BACKOFF_BASE * 2 ** (self._backoff_failures - 1),
                ) * (0.5 + 0.5 * self.BACKOFF_RNG.random())
                self._backoff_until = time.monotonic() + delay
            raise ProtocolError(
                f"cannot connect to {self.host}:{self.port}: {exc}",
                code=CODE_TIMEOUT,
            ) from exc
        with self._pool_lock:
            # The endpoint is accepting again: disarm the backoff.
            self._backoff_failures = 0
            self._backoff_until = 0.0
        return sock

    # -- request path --------------------------------------------------------

    def _exchange(
        self, user_id: str, payload: dict[str, Any],
    ) -> dict[str, Any]:
        conn, key = self._borrow(user_id)
        try:
            wire = encode_message(payload, key=key)
        except BaseException:
            self._give_back(conn, reuse=True)  # nothing went out on it
            raise
        try:
            if conn.sock is None or (
                    time.monotonic() - conn.last_used > _STALE_AFTER_S
                    and conn.closed_by_peer()):
                # New, or the server idled it out.  Nothing of this
                # request has been sent, so connecting here cannot
                # deliver a frame twice (a visit batch is not
                # idempotent); once it has, a break is the caller's.
                self._discard(conn)
                conn.sock, conn.user = self._open(), None
                conn.reader = FrameReader(conn.sock)
            if conn.user != user_id or conn.key is not key:
                wire = encode_message({HELLO_KEY: user_id}) + wire
                conn.user, conn.key = user_id, key
            conn.sock.sendall(wire)
            raw = conn.reader.read()
            conn.last_used = time.monotonic()
        except BlockingIOError:  # the kernel's response_timeout expired
            self._give_back(conn, reuse=False)
            raise ProtocolError(
                f"timed out after {self.response_timeout}s waiting for response",
                code=CODE_TIMEOUT,
            ) from None
        except OSError as exc:
            # A broken connection surfaces as a retryable typed error; the
            # next request opens another.
            self._give_back(conn, reuse=False)
            raise ProtocolError(
                f"connection to {self.host}:{self.port} broke: {exc}",
                code=CODE_TIMEOUT,
            ) from exc
        except ProtocolError:
            self._give_back(conn, reuse=False)
            raise
        if raw is None:
            self._give_back(conn, reuse=False)
            raise ProtocolError(
                "server closed connection mid-request", code=CODE_TIMEOUT)
        self._give_back(conn, reuse=True)
        self._count(sent=len(wire), received=len(raw))
        return decode_message(raw, key=key)

    def request(self, user_id: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request as *user_id*; returns the decoded response."""
        return self._exchange(user_id, {**payload, "user_id": user_id})

    def request_batch(
        self, user_id: str, payloads: list[dict[str, Any]],
    ) -> list[dict[str, Any]]:
        """One framed ``batch`` envelope over the socket; one response
        per payload, envelope-level failures replicated per slot."""
        if not payloads:
            return []
        envelope = self._exchange(user_id, {
            "servlet": BATCH_SERVLET,
            "user_id": user_id,
            "requests": payloads,
        })
        if envelope.get("status") != "ok":
            return replicate_envelope_failure(envelope, len(payloads))
        return envelope["responses"]
