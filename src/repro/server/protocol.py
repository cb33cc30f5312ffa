"""Message framing and optional encryption for client-server exchange.

§2: "the client should communicate with the server over HTTP.  The data
transfered should be encrypted, if desired, to preserve privacy."  We
reproduce the *discipline* without sockets: requests and responses are
JSON objects framed as length-prefixed byte messages (the HTTP-tunneled
POST body), optionally encrypted with an RC4-style stream cipher keyed
per user.

The cipher is the period-appropriate choice (SSL 3.0 deployments of 1999
ran RC4-128) and is implemented here for fidelity of the code path — it
must not be mistaken for modern transport security.

Over a real socket (:mod:`repro.server.netserver`,
:class:`~repro.server.transport.SocketTransport`) both ends read frames
with :class:`FrameReader` — one ``recv_into`` a frame — on blocking
sockets whose timeouts the kernel enforces (:func:`set_kernel_timeouts`).

Trace context rides in the *payload*, not the frame: a traced client
stamps each request object (and each item of a ``batch`` envelope) with
an optional ``traceparent`` field in the W3C format
``00-<trace_id>-<span_id>-<flags>``.  The field is plain request data —
absent means "start a new root trace", so v1 clients, old captures, and
hand-written requests decode and dispatch unchanged, with no frame or
version bump.  Malformed values produce a typed ``bad_request`` error
for that request (or that batch item) only; see
:meth:`repro.server.servlets.ServletRegistry.dispatch`.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from collections import OrderedDict
from typing import Any, NamedTuple

from ..errors import CODE_UNSUPPORTED_VERSION, ProtocolError

_LEN = struct.Struct("<I")
MAX_MESSAGE_BYTES = 16 * 1024 * 1024

# The flags byte packs the cipher bit (bit 0) and the protocol version
# (bits 1..7).  v1 frames predate versioning and wrote flags 0/1, so a
# version field of 0 means "v1"; the current encoder stamps PROTOCOL_V2.
# Decoders accept every version up to their own and reject the future.
_FLAG_ENCRYPTED = 0x01
_VERSION_SHIFT = 1
PROTOCOL_V1 = 1
PROTOCOL_V2 = 2
PROTOCOL_VERSION = PROTOCOL_V2


def frame_version(flags: int) -> int:
    """Protocol version encoded in a frame's flags byte (0 ⇒ legacy v1)."""
    return (flags >> _VERSION_SHIFT) or PROTOCOL_V1


def frame_encrypted(frame: bytes) -> bool:
    """Is the cipher bit set in a full frame's flags byte?"""
    return bool(frame[_LEN.size] & _FLAG_ENCRYPTED)


def check_key(key: bytes | None) -> None:
    """Refuse a cipher key no frame could be encrypted with.

    Every ``set_key`` calls this, so an empty key fails account setup
    instead of the first request that needs it (``None`` = cleartext).
    """
    if key is not None and not key:
        raise ValueError("cipher key must be non-empty (None means cleartext)")


# The cipher restarts for every frame (no IV, no state carried between
# frames), so the first n keystream bytes are a pure function of the
# key.  They are kept per key, with the generator state that follows
# them, and a frame is one big-integer XOR against that prefix; the key
# schedule and the per-byte generator run only when a key is new or a
# frame is longer than anything the key has sent.  Keyed by the key
# bytes, not the connection: one pooled connection carries every user
# of its client, so it changes key on most requests (DESIGN.md §17).
#: Keys remembered (least recently used dropped first).
KEYSTREAM_KEYS = 1024
#: Keystream bytes retained per key; the tail of a longer frame is
#: generated from the saved state and not kept, so a MAX_MESSAGE_BYTES
#: frame cannot pin 16 MiB per user.
KEYSTREAM_BYTES = 64 * 1024
_KEYSTREAM_FIRST = 1024


class _Keystream(NamedTuple):
    """Immutable, so it is read outside the memo's lock."""

    prefix: bytes  # the key's first len(prefix) keystream bytes
    state: bytes   # RC4's permutation S after producing them
    j: int         # ... and its j; i is len(prefix) & 255


_keystreams: OrderedDict[bytes, _Keystream] = OrderedDict()
# Leaf lock: guards _keystreams only, held across no call out of here
# (scheduling and generation run outside it).
_keystreams_lock = threading.Lock()


def _schedule(key: bytes) -> _Keystream:
    """RC4's key schedule: the generator state before any output."""
    s = list(range(256))
    n = len(key)
    j = 0
    for i in range(256):
        j = (j + s[i] + key[i % n]) & 255
        s[i], s[j] = s[j], s[i]
    return _Keystream(b"", bytes(s), 0)


def _generate(after: _Keystream, n: int) -> tuple[bytes, bytes, int]:
    """The *n* keystream bytes that follow *after*, and the state then."""
    s = list(after.state)
    i = len(after.prefix) & 255
    j = after.j
    out = bytearray(n)
    for k in range(n):
        i = (i + 1) & 255
        a = s[i]
        j = (j + a) & 255
        b = s[j]
        s[i] = b
        s[j] = a
        out[k] = s[(a + b) & 255]
    return bytes(out), bytes(s), j


def _keystream(key: bytes, n: int) -> bytes:
    """At least the first *n* keystream bytes of *key*."""
    with _keystreams_lock:
        entry = _keystreams.get(key)
        if entry is not None:
            _keystreams.move_to_end(key)
    if entry is None:
        entry = _schedule(key)
    have = len(entry.prefix)
    if have < min(n, KEYSTREAM_BYTES):
        # Grow geometrically so a key pays for each byte once.
        want = min(KEYSTREAM_BYTES, max(n, 2 * have, _KEYSTREAM_FIRST))
        more, state, j = _generate(entry, want - have)
        entry = _Keystream(entry.prefix + more, state, j)
        with _keystreams_lock:
            held = _keystreams.get(key)
            if held is not None and len(held.prefix) >= want:
                entry = held  # another thread grew it further meanwhile
            else:
                _keystreams[key] = entry
                _keystreams.move_to_end(key)
                while len(_keystreams) > KEYSTREAM_KEYS:
                    _keystreams.popitem(last=False)
    if n <= len(entry.prefix):
        return entry.prefix
    return entry.prefix + _generate(entry, n - len(entry.prefix))[0]


def rc4_stream(key: bytes, data: bytes) -> bytes:
    """RC4 keystream XOR (encryption == decryption).

    ``tests/rc4_reference.py`` is the textbook per-byte cipher this must
    equal byte for byte.
    """
    if not key:
        raise ProtocolError("cipher key must be non-empty")
    n = len(data)
    stream = _keystream(key, n)
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(stream[:n], "little")
    ).to_bytes(n, "little")


# Built once: json.dumps with any non-default argument builds an encoder
# per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _json_body(payload: dict[str, Any]) -> bytes:
    return _ENCODER.encode(payload).encode("utf-8")


class SharedResponse(dict):
    """A finished response a read cache hands to every hit.

    Every hit returns this one object, so it is read-only: copy it before
    annotating (``dict(r)``, ``copy.copy(r)`` and ``copy.deepcopy(r)``
    give a plain, mutable dict).  ``status: ok`` is stamped where the
    handler set none, in the place a registry's stamp would put it.

    :func:`encode_message` frames it from a JSON body kept on the object
    from its second frame on: the miss that built it pays ``json.dumps``
    once and keeps nothing, so an entry nobody asks for again holds no
    extra bytes (DESIGN.md §7, "What a hit costs").

    >>> r = SharedResponse({"hits": [], "total": 0})
    >>> r["total"] = 1
    Traceback (most recent call last):
    ...
    TypeError: a shared response is read-only; copy it first
    >>> r.body() == json.dumps(r, separators=(",", ":")).encode()
    True
    """

    __slots__ = ("_body", "_framed")

    def __init__(self, response: dict[str, Any]) -> None:
        super().__init__(response)
        if "status" not in self:
            dict.__setitem__(self, "status", "ok")
        self._body: bytes | None = None
        self._framed = False

    def body(self) -> bytes:
        """The frame body: encoded afresh on the first call, kept from the
        second on.  Two threads racing here encode the same bytes."""
        body = self._body
        if body is None:
            body = _json_body(self)
            if self._framed:
                self._body = body
            self._framed = True
        return body

    def _read_only(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("a shared response is read-only; copy it first")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> tuple[Any, ...]:
        # copy, deepcopy and pickle rebuild a plain dict.
        return dict, (dict(self),)


def encode_message(
    payload: dict[str, Any], *, key: bytes | None = None,
) -> bytes:
    """Frame *payload* as ``length || flags || body``.

    ``flags`` carries the cipher bit and ``PROTOCOL_VERSION``.
    """
    body = (
        payload.body() if isinstance(payload, SharedResponse)
        else _json_body(payload)
    )
    flags = PROTOCOL_VERSION << _VERSION_SHIFT
    if key is not None:
        body = rc4_stream(key, body)
        flags |= _FLAG_ENCRYPTED
    if len(body) + 1 > MAX_MESSAGE_BYTES:
        raise ProtocolError("message too large")
    return _LEN.pack(len(body) + 1) + bytes([flags]) + body


def _declared_length(data: Any, offset: int) -> int:
    """Body length a frame header at *offset* declares (validated)."""
    (length,) = _LEN.unpack_from(data, offset)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError("declared length too large")
    if length < 1:
        raise ProtocolError("declared length too small")
    return length


# -- frames over a socket ------------------------------------------------------
#
# Both ends of every hop use blocking sockets whose timeouts the kernel
# enforces (SO_RCVTIMEO, SO_SNDTIMEO).  A Python-level socket timeout
# costs a poll() before every recv and send and an ioctl per change; a
# kernel timeout costs nothing per call, and a call that waits it out
# fails with EAGAIN (BlockingIOError).

#: Linux's ``struct timeval`` (tv_sec, tv_usec), as SO_RCVTIMEO takes it.
_TIMEVAL = struct.Struct("@ll")


def _timeval(seconds: float) -> bytes:
    # At least 1 µs: a zero timeval means "wait forever".
    usec = max(1, round(seconds * 1_000_000))
    return _TIMEVAL.pack(*divmod(usec, 1_000_000))


def set_kernel_timeouts(sock: socket.socket, *, recv: float, send: float) -> None:
    """Make *sock* blocking, with the kernel bounding each receive by
    *recv* seconds and each send by *send*.  A platform that refuses
    the options raises here, before anything is served."""
    sock.settimeout(None)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, _timeval(recv))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, _timeval(send))


#: Bytes of a connection's receive buffer.  A frame longer than this is
#: read into a buffer of its own, so no connection keeps more.
RECV_BUFFER_BYTES = 16 * 1024


class FrameReader:
    """Frames off one blocking socket (see :func:`set_kernel_timeouts`),
    one ``recv_into`` per frame, into a buffer the connection owns.

    What a read brings past the frame it returns stays buffered for the
    next, so frames that arrive together — a hello and its request — are
    served in order without another read.  The receive timeout is the
    socket's own (*idle*) while no partial frame is buffered; given a
    different *stall* timeout, the reader switches the socket to it once
    a frame has started but is incomplete, and back before it waits for
    the next frame.
    """

    __slots__ = ("sock", "_buf", "_view", "_start", "_end",
                 "_timeouts", "_stalled")

    def __init__(self, sock: socket.socket, *,
                 idle: float = 0.0, stall: float = 0.0) -> None:
        self.sock = sock
        self._buf = bytearray(RECV_BUFFER_BYTES)
        self._view = memoryview(self._buf)
        self._start = self._end = 0   # the buffered bytes: _buf[_start:_end]
        # (idle, stall) as timevals, or None when there is nothing to
        # switch: the client waits response_timeout either way.
        self._timeouts = (
            (_timeval(idle), _timeval(stall)) if stall != idle else None)
        self._stalled = False

    @property
    def partial(self) -> bool:
        """Is part of a frame buffered?  When a read times out, this
        tells a stall inside a frame from a wait for the next one."""
        return self._end > self._start

    def read(self) -> bytes | None:
        """The next whole frame (header included), for
        :func:`decode_message`; ``None`` on a clean EOF between frames.

        Raises :class:`ProtocolError` for a bad declared length or an
        EOF mid-frame, and ``BlockingIOError`` when a receive timeout
        expires (see :attr:`partial`).
        """
        buf, view = self._buf, self._view
        while True:
            start, have = self._start, self._end - self._start
            if have >= _LEN.size:
                total = _LEN.size + _declared_length(buf, start)
                if have >= total:
                    if have == total:
                        self._start = self._end = 0
                    else:
                        self._start = start + total
                    return bytes(view[start:start + total])
                if total > len(buf):
                    return self._read_long(total)
            if start:
                # A partial frame at the tail: move it to the front.
                view[:have] = view[start:start + have]
                self._start, self._end = 0, have
            n = self._recv(view[have:])
            if not n:
                if have:
                    raise ProtocolError(
                        f"connection closed mid-frame ({have} bytes in)")
                return None
            self._end += n

    def _read_long(self, total: int) -> bytes:
        """A frame longer than the buffer, whose first bytes it holds."""
        frame = bytearray(total)
        got = self._end - self._start
        frame[:got] = self._view[self._start:self._end]
        out = memoryview(frame)
        while got < total:
            n = self._recv(out[got:])
            if not n:
                raise ProtocolError(
                    f"connection closed mid-frame ({got}/{total} bytes)")
            got += n
        self._start = self._end = 0
        return bytes(frame)

    def _recv(self, into: memoryview) -> int:
        if self._timeouts is not None and self.partial != self._stalled:
            self._stalled = not self._stalled
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                                 self._timeouts[self._stalled])
        return self.sock.recv_into(into)


def decode_message(data: bytes, *, key: bytes | None = None) -> dict[str, Any]:
    """Parse one framed message; raises :class:`ProtocolError` on garbage.

    Frames from every protocol version up to :data:`PROTOCOL_VERSION`
    decode (v1 frames carry no version bits and decode unchanged); frames
    stamped with an unknown future version are rejected with a typed
    ``unsupported_version`` error rather than misparsed.  With *key*
    the frame must be encrypted under it; without, it must be clear.
    """
    if len(data) < _LEN.size + 1:
        raise ProtocolError("short message")
    (length,) = _LEN.unpack_from(data)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError("declared length too large")
    if len(data) != _LEN.size + length:
        raise ProtocolError(
            f"length mismatch: declared {length}, got {len(data) - _LEN.size}"
        )
    flags = data[_LEN.size]
    version = frame_version(flags)
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} (speak ≤ {PROTOCOL_VERSION})",
            code=CODE_UNSUPPORTED_VERSION,
        )
    body = data[_LEN.size + 1:]
    if flags & _FLAG_ENCRYPTED:
        if key is None:
            raise ProtocolError("encrypted message but no key supplied")
        body = rc4_stream(key, body)
    elif key is not None:
        # Knowing the key is what authenticates a keyed user: a clear
        # frame on their session is someone who does not have it.
        raise ProtocolError("cleartext message on an encrypted session")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message body must be a JSON object")
    return payload
