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
        # Unbuffered: every append is one write, so a refused one can be
        # cut off the file with no bytes left over in a buffer.
        self._fh = open(self.path, "ab", buffering=0)
        self._closed = False
        # Single-writer lock: appends and compaction serialize here so
        # records never interleave mid-frame.  Nothing takes it twice.
        self._wal_lock = threading.Lock()

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
            return self._write(record)

    def append_many(self, payloads: Iterable[bytes]) -> list[int]:
        """Group commit: append every payload as its own record with ONE
        write and (when ``sync``) ONE fsync for the whole batch.

        Records stay individually checksummed and length-prefixed, so
        torn-tail recovery still truncates to the last intact *record* —
        a crash mid-batch keeps the batch's unbroken prefix.  Returns the
        starting offset of each record, in order.
        """
        records = [encode_record(payload) for payload in payloads]
        with self._wal_lock:
            if self._closed:
                raise StoreClosed(f"log {self.path} is closed")
            if not records:
                return []
            offset = self._write(b"".join(records))
        offsets: list[int] = []
        for record in records:
            offsets.append(offset)
            offset += len(record)
        return offsets

    def _write(self, data: bytes) -> int:
        """Write *data* at the end of the log (and fsync it when ``sync``),
        all or nothing; returns the offset it begins at.  Call with
        ``_wal_lock`` held.

        When the write or the fsync raises, the file is truncated back to
        that offset, so a caller that undoes the refused change in memory
        agrees with what a reopen replays.  If even the truncation fails,
        the log closes: the refused bytes may replay on reopen, as after a
        crash before the append returned, but no later record lands
        behind them.
        """
        offset = self._fh.tell()
        try:
            view = memoryview(data)
            while view:
                view = view[self._fh.write(view):]
            if self.sync:
                os.fsync(self._fh.fileno())
                self._n_fsyncs += 1
        except BaseException:
            try:
                os.ftruncate(self._fh.fileno(), offset)
                self._fh.seek(offset)
            except OSError:
                self._closed = True
                self._fh.close()
            raise
        return offset

    def replay(self) -> Iterator[bytes]:
        """Yield every intact record payload, in append order.

        Safe to call while the log is open for appending; it reads a
        snapshot of the bytes present when iteration starts.
        """
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
            self._fh = open(self.path, "ab", buffering=0)

    def size_bytes(self) -> int:
        """Current log size in bytes."""
        with self._wal_lock:
            return self.path.stat().st_size

    def close(self) -> None:
        with self._wal_lock:
            if not self._closed:
                self._fh.close()
                self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
