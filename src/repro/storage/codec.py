"""The record format: how structured records become bytes in the stores.

Every storage consumer — the relational WAL, the repository's model
blobs and sequences, the inverted index's posting lists, the dense
vector index — serializes through this one pair instead of hand-rolled
``json.dumps(...).encode("utf-8")`` calls, so the on-disk format is
declared in one place: compact JSON (``","``/``":"`` separators), UTF-8.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import CorruptLog

#: First byte of records written by the removed ``binary`` codec; never a
#: legal first byte of UTF-8 JSON text.
_REMOVED_BINARY_MAGIC = b"\xb1"


def encode(value: Any) -> bytes:
    """Serialize JSON-able *value* to compact UTF-8 JSON bytes."""
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def decode(data: bytes) -> Any:
    """Parse bytes written by :func:`encode`."""
    if data[:1] == _REMOVED_BINARY_MAGIC:
        raise CorruptLog(
            "record was written by the removed 'binary' codec (magic byte "
            "0xB1); re-ingest into a fresh data directory"
        )
    return json.loads(data.decode("utf-8"))
