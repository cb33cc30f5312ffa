"""Threaded TCP front-end for the servlet registry.

:class:`MemexSocketServer` speaks the existing framed protocol
(:mod:`repro.server.protocol` — length prefix, flags byte, optional
per-user RC4, versions v1/v2, batch envelopes, traceparent in the
payload) over real sockets, so a :class:`~repro.server.transport.
SocketTransport` client exercises byte-for-byte the same wire format as
the in-process :class:`~repro.server.transport.HttpTunnelTransport`.

Connection lifecycle::

    client                           server
    ------                           ------
    connect ------------------------> accept (queued to worker pool)
    {"hello": "alice"} + request ---> bind alice's key; registry.dispatch
    <------------- response frame (alice's key)
    request frame (alice's key) ----> registry.dispatch
    <------------- response frame (alice's key)
    {"hello": "bob"} + request -----> bind bob's key; registry.dispatch
    <------------- response frame (bob's key)
    ... (framing loop, one request in flight per connection) ...

A hello frame is cleartext, gets no reply, and binds the connection to
one user until the next hello, so the server knows which cipher key
decodes the frames that follow — the socket analogue of
``HttpTunnelTransport._serve``'s ``claimed_user`` argument.  A client
sends one in the same write as the request it names, and only when the
connection's user changes: a connection is not a user, and one pooled
connection carries every user its client speaks for.

Threading model: one acceptor thread plus a bounded pool of ``workers``
threads.  A worker serves one connection at a time from an accept queue;
extra connections wait their turn.  Timeouts map to typed wire errors:
waiting longer than ``idle_timeout`` for a *new* frame closes the
connection quietly, while stalling mid-frame for ``READ_TIMEOUT`` sends
a retryable ``timeout`` error before closing.  The kernel enforces both
(:func:`~repro.server.protocol.set_kernel_timeouts`), so a frame that
arrives whole costs one read and its response one write.  ``close()``
drains gracefully — the listener stops, in-flight requests finish and
their responses are sent, then connections shut down.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Any, Protocol

from ..errors import CODE_TIMEOUT, ProtocolError, error_payload
from ..obs.logging import Logger, null_logger
from ..obs.metrics import MetricsRegistry, null_registry
from .protocol import (
    FrameReader,
    check_key,
    decode_message,
    encode_message,
    frame_encrypted,
    set_kernel_timeouts,
)

#: Reserved payload key of a cleartext frame that names the user every
#: later frame on its connection speaks for, until the next one.
HELLO_KEY = "hello"

_POOL_SENTINEL = object()


class Dispatcher(Protocol):
    """Anything that can answer a decoded request (a servlet registry,
    a shard dispatcher, or a shard router)."""

    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]: ...


class KeySource(Protocol):
    """Anything that can resolve a user's cipher key (e.g. a transport)."""

    def key_for(self, user_id: str) -> bytes | None: ...


class DictKeySource:
    """Self-contained key store for servers run without a transport."""

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}

    def set_key(self, user_id: str, key: bytes | None) -> None:
        check_key(key)
        if key is None:
            self._keys.pop(user_id, None)
        else:
            self._keys[user_id] = key

    def key_for(self, user_id: str) -> bytes | None:
        return self._keys.get(user_id)


class MemexSocketServer:
    """Serve a :class:`Dispatcher` over TCP with a worker pool.

    ``registry`` is any object with a ``dispatch(request) -> response``
    method — a servlet registry, a shard dispatcher, or a shard router;
    the socket layer is identical in front of all three.  With
    ``authoritative_user`` set, the user the connection is bound to (its
    last hello) is stamped onto every forwarded request's ``user_id``, so
    a routed payload cannot claim a different user than the key that
    decoded it (the router relies on this to keep ring placement honest).
    """

    #: Connections the kernel queues before the acceptor takes them.
    BACKLOG = 128
    #: Seconds a frame's body may take once its header arrived.
    READ_TIMEOUT = 5.0
    #: Seconds ``close()`` waits for each thread to finish its request.
    DRAIN_TIMEOUT = 5.0

    def __init__(
        self,
        registry: Dispatcher,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        idle_timeout: float = 30.0,
        authoritative_user: bool = False,
        key_source: KeySource | None = None,
        metrics: MetricsRegistry | None = None,
        log: Logger | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.registry = registry
        self.workers = workers
        self.authoritative_user = authoritative_user
        self.idle_timeout = idle_timeout
        self.keys = key_source if key_source is not None else DictKeySource()
        self.metrics = metrics if metrics is not None else null_registry()
        self.log = log if log is not None else null_logger("netserver")

        self._sock = socket.create_server((host, port), backlog=self.BACKLOG)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]

        self._stopping = threading.Event()
        self._closed = False
        # Accepted-but-unserved connections; bounded so a flood backs up
        # into the TCP backlog instead of unbounded memory.
        self._pending: queue.Queue[Any] = queue.Queue(maxsize=workers * 8)
        # Guards _active (connections currently owned by a worker).
        self._pool_lock = threading.Lock()
        self._active: set[socket.socket] = set()

        self.connections_total = self.metrics.counter("net.connections_total")
        self.timeouts_total = self.metrics.counter("net.timeouts_total")

        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"memex-net-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="memex-net-accept", daemon=True,
        )
        for t in self._threads:
            t.start()
        self._acceptor.start()
        self.log.info("listening", host=self.address[0], port=self.address[1],
                      workers=workers)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "MemexSocketServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self, *, drain: bool = True) -> None:
        """Stop serving.  With *drain* (default), in-flight requests
        finish and their responses are sent before connections close;
        idle connections are shut down immediately."""
        if self._closed:
            return
        self._closed = True
        self._stopping.set()
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does (accept fails with EINVAL).  Platforms
        # that refuse to shut down a listener raise here and wake on
        # close() instead.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        # Unblock workers parked between frames: shutting down the read
        # side makes their recv return EOF, while a response for a
        # request already being dispatched can still be written.
        with self._pool_lock:
            active = list(self._active)
        if drain:
            for conn in active:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        else:
            for conn in active:
                try:
                    conn.close()
                except OSError:
                    pass
        for _ in self._threads:
            try:
                self._pending.put_nowait(_POOL_SENTINEL)
            except queue.Full:  # workers will see _stopping anyway
                break
        # Close connections that were accepted but never picked up.
        while True:
            try:
                item = self._pending.get_nowait()
            except queue.Empty:
                break
            if item is not _POOL_SENTINEL:
                item.close()
        self._acceptor.join(timeout=self.DRAIN_TIMEOUT)
        for t in self._threads:
            t.join(timeout=self.DRAIN_TIMEOUT)
        with self._pool_lock:
            leftovers = list(self._active)
        for conn in leftovers:  # pragma: no cover - drain timeout expired
            try:
                conn.close()
            except OSError:
                pass
        self.log.info("closed", drained=drain)

    # -- accept / worker loops ----------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                break  # listener closed
            self.connections_total.inc()
            while not self._stopping.is_set():
                try:
                    self._pending.put(conn, timeout=0.1)
                    break
                except queue.Full:
                    continue
            else:
                conn.close()

    def _worker_loop(self) -> None:
        while True:
            try:
                item = self._pending.get(timeout=0.1)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            if item is _POOL_SENTINEL:
                return
            with self._pool_lock:
                self._active.add(item)
            try:
                self._serve_connection(item)
            finally:
                with self._pool_lock:
                    self._active.discard(item)
                try:
                    item.close()
                except OSError:
                    pass

    # -- connection handling -------------------------------------------------

    def _read_frame(self, reader: FrameReader) -> bytes | None:
        """One full frame; None on clean EOF or idle timeout.

        The wait for a frame's *first* bytes is bounded by
        ``idle_timeout``; once part of a frame arrived the rest must
        follow within :attr:`READ_TIMEOUT` or a typed ``timeout`` error
        goes back.  The kernel enforces both (the reader switches them).
        """
        try:
            return reader.read()
        except BlockingIOError:
            if not reader.partial:
                self.log.info("idle_timeout")
                return None
        self.timeouts_total.inc()
        raise ProtocolError(
            f"read timed out mid-frame after {self.READ_TIMEOUT}s",
            code=CODE_TIMEOUT,
        )

    def _send(self, conn: socket.socket, payload: dict[str, Any],
              key: bytes | None) -> None:
        conn.sendall(encode_message(payload, key=key))

    def _try_send_error(self, conn: socket.socket, exc: ProtocolError,
                        key: bytes | None) -> bool:
        """False when no error frame went out — the peer is gone, or the
        cipher refuses *key* — and all that is left is to hang up."""
        try:
            self._send(conn, error_payload(exc), key)
        except (OSError, ProtocolError):
            return False
        return True

    def _serve_connection(self, conn: socket.socket) -> None:
        user_id: str | None = None  # named by the last hello
        key: bytes | None = None    # ... and its cipher key
        try:
            # Sends run under READ_TIMEOUT too.
            set_kernel_timeouts(
                conn, recv=self.idle_timeout, send=self.READ_TIMEOUT)
            reader = FrameReader(
                conn, idle=self.idle_timeout, stall=self.READ_TIMEOUT)
            while not self._stopping.is_set():
                try:
                    frame = self._read_frame(reader)
                except ProtocolError as exc:
                    # Truncation / oversize / mid-frame timeout: answer
                    # with a typed error, then drop the connection — the
                    # stream can no longer be trusted to be frame-aligned.
                    self._try_send_error(conn, exc, key)
                    return
                if frame is None:
                    return
                # A clear frame is answered in clear: its sender may hold
                # no key (a hello, or a keyed user's client without one).
                reply_key = key if frame_encrypted(frame) else None
                try:
                    request = decode_message(frame, key=reply_key)
                    if reply_key is None and HELLO_KEY in request:
                        user_id = request[HELLO_KEY]
                        if not isinstance(user_id, str) or not user_id:
                            # The stream names nobody we could answer to.
                            self._try_send_error(conn, ProtocolError(
                                "a hello must name a user"), None)
                            return
                        key = self.keys.key_for(user_id)
                        continue
                    if user_id is None:
                        self._try_send_error(conn, ProtocolError(
                            "first frame must be a hello naming a user"), None)
                        return
                    if reply_key is None and key is not None:
                        # Knowing the key is what authenticates a keyed
                        # user; a hello alone proves nothing.
                        raise ProtocolError(
                            "cleartext message on an encrypted session")
                except ProtocolError as exc:
                    # Decode errors leave framing intact: reply and go on.
                    if not self._try_send_error(conn, exc, reply_key):
                        return
                    continue
                if self.authoritative_user:
                    request = {**request, "user_id": user_id}
                response = self.registry.dispatch(request)
                try:
                    self._send(conn, response, key)
                except ProtocolError as exc:
                    # The response cannot be framed (too large): the
                    # client is owed one frame, so it gets the reason.
                    if not self._try_send_error(conn, exc, key):
                        return
                except OSError:
                    return
        except OSError:
            # Connection reset / forced close during drain.
            return
        except Exception:  # pragma: no cover - never kill a worker
            self.log.error("connection_crashed", user=user_id)
            return
