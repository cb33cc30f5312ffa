"""The exact-read frame reader ``server.protocol.FrameReader`` replaced,
kept for tests that drive a socket by hand.

It reads a frame's 4-byte header, then its body, with as many ``recv``
calls as each takes and never a byte past the frame, so a test can read
one frame, send, and read the next on the same socket — or stand in for
a server that reads a hello and its request one after the other.  Not a
test module: the socket tests import it.
"""

import struct

_LEN = struct.Struct("<I")


def _recv_exact(recv, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = recv(n - len(buf))
        if not chunk:
            if not buf:
                return None
            raise ConnectionError(f"closed mid-frame ({len(buf)}/{n} bytes)")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(recv):
    """One whole frame (header + body) via ``recv(size)`` calls, or None
    on a clean EOF before its first byte."""
    header = _recv_exact(recv, _LEN.size)
    if header is None:
        return None
    body = _recv_exact(recv, _LEN.unpack(header)[0])
    if body is None:
        raise ConnectionError("closed before the frame body")
    return header + body
