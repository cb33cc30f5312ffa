"""Write-ahead log with checksummed, length-prefixed records.

The relational engine and the key-value store both persist through this
log format.  Each record on disk is::

    +----------+----------+----------------+
    | crc32    | length   | payload        |
    | 4 bytes  | 4 bytes  | `length` bytes |
    +----------+----------+----------------+

``crc32`` covers the payload only.  A torn final record (partial write at
crash) is detected by a short read or checksum mismatch and the log is
truncated to the last good record on recovery — exactly the behaviour the
paper needs from "the server recovers from network and programming errors
quickly, even if it has to discard a few client events" (§3).
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..errors import CorruptLog, StoreClosed
from ..obs import MetricsRegistry, null_registry

_HEADER = struct.Struct("<II")  # crc32, payload length
MAX_RECORD_BYTES = 64 * 1024 * 1024


def encode_record(payload: bytes) -> bytes:
    """Frame *payload* as a single log record."""
    if len(payload) > MAX_RECORD_BYTES:
        raise CorruptLog(f"record of {len(payload)} bytes exceeds maximum")
    return _HEADER.pack(zlib.crc32(payload) & 0xFFFFFFFF, len(payload)) + payload


class WriteAheadLog:
    """Append-only log of byte records with crash recovery.

    Parameters
    ----------
    path:
        File the log lives in.  Created (with parents) if missing.
    sync:
        When true, ``fsync`` after every :meth:`append`.  Tests and
        benchmarks leave this off; durability-sensitive callers turn it on.
    metrics:
        Observability registry; counts fsyncs as ``storage.wal.fsyncs``
        labelled ``log=<file name>`` (a server has two logs,
        ``catalog.wal`` and ``terms.kv``).
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        sync: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.path = Path(path)
        self.sync = sync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        m = metrics if metrics is not None else null_registry()
        self._n_fsyncs = 0
        m.counter_func(
            "storage.wal.fsyncs", lambda: self._n_fsyncs, log=self.path.name)
        self._recovered_bytes = self._scan_and_truncate()
        self._fh = open(self.path, "ab")
        self._closed = False
        # Single-writer lock: appends, compaction, and flushes serialize
        # here so records never interleave mid-frame.  Reentrant because
        # compaction flushes while already holding it.
        self._wal_lock = threading.RLock()

    # -- recovery -----------------------------------------------------------

    def _scan_and_truncate(self) -> int:
        """Find the byte offset of the last intact record and truncate there."""
        if not self.path.exists():
            return 0
        good = 0
        with open(self.path, "rb") as fh:
            while True:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    break
                crc, length = _HEADER.unpack(header)
                if length > MAX_RECORD_BYTES:
                    break
                payload = fh.read(length)
                if len(payload) < length:
                    break
                if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                    break
                good = fh.tell()
        size = self.path.stat().st_size
        if size > good:
            with open(self.path, "r+b") as fh:
                fh.truncate(good)
        return good

    # -- primitive operations -----------------------------------------------

    def append(self, payload: bytes) -> int:
        """Append one record; returns the offset it begins at."""
        record = encode_record(payload)
        with self._wal_lock:
            if self._closed:
                raise StoreClosed(f"log {self.path} is closed")
            offset = self._fh.tell()
            self._fh.write(record)
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
                self._n_fsyncs += 1
        return offset

    def append_many(self, payloads: Iterable[bytes]) -> list[int]:
        """Group commit: append every payload as its own record with ONE
        buffered write and (when ``sync``) ONE fsync for the whole batch.

        Records stay individually checksummed and length-prefixed, so
        torn-tail recovery still truncates to the last intact *record* —
        a crash mid-batch keeps the batch's unbroken prefix.  Returns the
        starting offset of each record, in order.
        """
        records = [encode_record(payload) for payload in payloads]
        with self._wal_lock:
            if self._closed:
                raise StoreClosed(f"log {self.path} is closed")
            offsets: list[int] = []
            offset = self._fh.tell()
            for record in records:
                offsets.append(offset)
                offset += len(record)
            if not records:
                return offsets
            buffer = b"".join(records)
            self._fh.write(buffer)
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
                self._n_fsyncs += 1
        return offsets

    def replay(self) -> Iterator[bytes]:
        """Yield every intact record payload, in append order.

        Safe to call while the log is open for appending; it reads a
        snapshot of the bytes present when iteration starts.
        """
        with self._wal_lock:
            self._fh.flush()
        with open(self.path, "rb") as fh:
            while True:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return
                crc, length = _HEADER.unpack(header)
                if length > MAX_RECORD_BYTES:
                    raise CorruptLog(f"{self.path}: record length {length} too large")
                payload = fh.read(length)
                if len(payload) < length:
                    return
                if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                    raise CorruptLog(f"{self.path}: checksum mismatch mid-log")
                yield payload

    def rewrite(self, payloads: Iterator[bytes] | list[bytes]) -> None:
        """Atomically replace the log contents (used by compaction).

        Writes to a sibling temp file then renames over the original, so a
        crash mid-compaction leaves either the old or the new log intact.
        """
        with self._wal_lock:
            if self._closed:
                raise StoreClosed(f"log {self.path} is closed")
            tmp = self.path.with_suffix(self.path.suffix + ".compact")
            with open(tmp, "wb") as fh:
                for payload in payloads:
                    fh.write(encode_record(payload))
                fh.flush()
                os.fsync(fh.fileno())
                self._n_fsyncs += 1
            self._fh.close()
            os.replace(tmp, self.path)
            self._fh = open(self.path, "ab")

    def size_bytes(self) -> int:
        """Current log size in bytes (including unflushed buffer)."""
        with self._wal_lock:
            self._fh.flush()
            return self.path.stat().st_size

    def close(self) -> None:
        with self._wal_lock:
            if not self._closed:
                self._fh.flush()
                self._fh.close()
                self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
