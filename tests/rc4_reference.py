"""The per-byte RC4 that ``server.protocol.rc4_stream`` replaced, kept as
the differential oracle.

This is the body ``rc4_stream`` had while every frame re-ran the key
schedule and stepped the generator byte by byte in Python: the textbook
cipher, with no state kept between calls.  The production cipher keeps a
keystream prefix per key and XORs a frame as one big integer; for every
key and every length the two must return the same bytes.  Not a test
module: the cipher tests import it.
"""

import json
import struct


def _reference_rc4_stream(key, data):
    if not key:
        raise ValueError("cipher key must be non-empty")
    s = list(range(256))
    j = 0
    for i in range(256):
        j = (j + s[i] + key[i % len(key)]) % 256
        s[i], s[j] = s[j], s[i]
    out = bytearray(len(data))
    i = j = 0
    for n, byte in enumerate(data):
        i = (i + 1) % 256
        j = (j + s[i]) % 256
        s[i], s[j] = s[j], s[i]
        out[n] = byte ^ s[(s[i] + s[j]) % 256]
    return bytes(out)


def _reference_encode_message(payload, key=None):
    """A protocol-v2 frame as the parent commit's encoder wrote it."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    flags = 2 << 1
    if key is not None:
        body = _reference_rc4_stream(key, body)
        flags |= 1
    return struct.pack("<I", len(body) + 1) + bytes([flags]) + body


def _reference_decode_message(frame, key=None):
    """The parent's decoder, less its checks (the frames are our own)."""
    body = frame[5:]
    if frame[4] & 1:
        body = _reference_rc4_stream(key, body)
    return json.loads(body.decode("utf-8"))
