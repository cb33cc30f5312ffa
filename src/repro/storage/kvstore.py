"""Lightweight Berkeley-DB-style key-value store.

The paper stores "fine-grained term-level data" (term statistics, posting
lists) in Berkeley DB because "storing term-level statistics in an RDBMS
would have overwhelming space and time overheads" (§3).  This module is the
stand-in: a persistent ordered key-value store with

* byte-string keys and values,
* ordered cursors and prefix scans (the access pattern posting lists need),
* durability through the shared write-ahead log format,
* background-free compaction triggered by a garbage ratio, and
* an in-memory mode (``path=None``) for tests and simulations.

The design is log-structured: every mutation is appended to the log, and an
in-memory sorted index maps live keys to values.  On open, the log is
replayed to rebuild the index; compaction rewrites the log to contain only
live entries.
"""

from __future__ import annotations

import struct
import threading
from bisect import bisect_left, insort
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..errors import CorruptLog, KeyNotFound, StoreClosed
from ..obs import MetricsRegistry, null_registry
from .engine import prefix_successor
from .wal import WriteAheadLog

_OP_PUT = 0
_OP_DELETE = 1
_REC = struct.Struct("<BI")  # opcode, key length


def _encode(op: int, key: bytes, value: bytes = b"") -> bytes:
    return _REC.pack(op, len(key)) + key + value


def _decode(payload: bytes) -> tuple[int, bytes, bytes]:
    if len(payload) < _REC.size:
        raise CorruptLog("kvstore record shorter than its header")
    op, klen = _REC.unpack_from(payload)
    if _REC.size + klen > len(payload):
        raise CorruptLog("kvstore record key overruns payload")
    key = payload[_REC.size:_REC.size + klen]
    value = payload[_REC.size + klen:]
    return op, key, value


class KVStore:
    """Ordered, persistent key-value store.

    Parameters
    ----------
    path:
        Log file backing the store, or ``None`` for a purely in-memory
        store.
    compact_garbage_ratio:
        When the fraction of dead log records exceeds this, :meth:`put`
        and :meth:`delete` trigger a compaction.  Set above 1.0 to disable
        automatic compaction.
    sync:
        Passed through to the write-ahead log.
    """

    #: The name :func:`~repro.storage.engine.open_engine` accepts and
    #: ``stats`` reports (historical: the Berkeley-DB/B-tree stand-in).
    engine_name = "btree"

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        compact_garbage_ratio: float = 0.5,
        sync: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._data: dict[bytes, bytes] = {}
        self._keys: list[bytes] = []          # sorted view of _data's keys
        self._log: WriteAheadLog | None = None
        self._log_records = 0                  # total records in the log
        self._closed = False
        # Single-writer lock: keeps _data and _keys mutually consistent
        # and serializes mutations with compaction.  Reentrant because
        # put/delete may trigger compact() while holding it.  Point reads
        # are single dict ops (GIL-atomic) and stay lock-free; scans
        # snapshot the key range under the lock, then iterate outside it.
        self._kv_lock = threading.RLock()
        self.compact_garbage_ratio = compact_garbage_ratio
        m = metrics if metrics is not None else null_registry()
        # Hot-path counts are plain ints pulled by the registry at read
        # time (zero per-event instrument cost).
        self._n_puts = 0
        self._n_deletes = 0
        self._n_compactions = 0
        m.counter_func("storage.kvstore.puts", lambda: self._n_puts)
        m.counter_func("storage.kvstore.deletes", lambda: self._n_deletes)
        m.counter_func("storage.kvstore.compactions", lambda: self._n_compactions)
        if path is not None:
            self._log = WriteAheadLog(path, sync=sync, metrics=m)
            self._recover()

    # -- lifecycle ------------------------------------------------------------

    def _recover(self) -> None:
        assert self._log is not None
        for payload in self._log.replay():
            op, key, value = _decode(payload)
            if op == _OP_PUT:
                self._data[key] = value
            else:
                self._data.pop(key, None)
            self._log_records += 1
        self._keys = sorted(self._data)

    def close(self) -> None:
        with self._kv_lock:
            if self._closed:
                return
            if self._log is not None:
                self._log.close()
            self._closed = True

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosed("kvstore is closed")

    # -- mutation ---------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite *key*."""
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("kvstore keys and values must be bytes")
        with self._kv_lock:
            self._check_open()
            fresh = key not in self._data
            self._data[key] = value
            self._n_puts += 1
            if fresh:
                insort(self._keys, key)
            if self._log is not None:
                self._log.append(_encode(_OP_PUT, key, value))
                self._log_records += 1
                self._maybe_compact()

    def put_many(self, items: Iterable[tuple[bytes, bytes]]) -> int:
        """Insert or overwrite many keys with one group-committed log
        append (one write, at most one fsync); returns the count.

        Later occurrences of a duplicate key win, matching sequential
        :meth:`put` semantics.
        """
        with self._kv_lock:
            self._check_open()
            records: list[bytes] = []
            for key, value in items:
                if not isinstance(key, bytes) or not isinstance(value, bytes):
                    raise TypeError("kvstore keys and values must be bytes")
                if key not in self._data:
                    insort(self._keys, key)
                self._data[key] = value
                self._n_puts += 1
                records.append(_encode(_OP_PUT, key, value))
            if self._log is not None and records:
                self._log.append_many(records)
                self._log_records += len(records)
                self._maybe_compact()
            return len(records)

    def delete(self, key: bytes) -> None:
        """Remove *key*; raises :class:`KeyNotFound` if absent."""
        with self._kv_lock:
            self._check_open()
            if key not in self._data:
                raise KeyNotFound(repr(key))
            del self._data[key]
            self._n_deletes += 1
            i = bisect_left(self._keys, key)
            del self._keys[i]
            if self._log is not None:
                self._log.append(_encode(_OP_DELETE, key))
                self._log_records += 1
                self._maybe_compact()

    def discard(self, key: bytes) -> bool:
        """Remove *key* if present; returns whether it was."""
        try:
            self.delete(key)
            return True
        except KeyNotFound:
            return False

    # -- lookup -------------------------------------------------------------------

    def get(self, key: bytes, default: bytes | None = None) -> bytes | None:
        """Return the value for *key*, or *default* when absent."""
        self._check_open()
        return self._data.get(key, default)

    def __getitem__(self, key: bytes) -> bytes:
        self._check_open()
        try:
            return self._data[key]
        except KeyError:
            raise KeyNotFound(repr(key)) from None

    def __setitem__(self, key: bytes, value: bytes) -> None:
        self.put(key, value)

    def __contains__(self, key: bytes) -> bool:
        self._check_open()
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    # -- scans ---------------------------------------------------------------------

    def cursor(
        self,
        start: bytes | None = None,
        end: bytes | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` pairs in key order over ``[start, end)``.

        The iteration works over a snapshot of the key set taken at call
        time, so mutating the store during iteration is safe.
        """
        with self._kv_lock:
            self._check_open()
            lo = 0 if start is None else bisect_left(self._keys, start)
            keys = self._keys[lo:]
            if end is not None:
                hi = bisect_left(keys, end)
                keys = keys[:hi]
        # Iterate outside the lock: the snapshot is ours, and per-key
        # value reads are single dict lookups.
        for key in keys:
            value = self._data.get(key)
            if value is not None:
                yield key, value

    def prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate all pairs whose key starts with *prefix*, in key order."""
        if not prefix:
            yield from self.cursor()
            return
        end = prefix_successor(prefix)
        for key, value in self.cursor(start=prefix, end=end):
            if not key.startswith(prefix):
                break
            yield key, value

    def keys(self) -> list[bytes]:
        """All live keys in sorted order (copy)."""
        with self._kv_lock:
            self._check_open()
            return list(self._keys)

    # -- maintenance -----------------------------------------------------------------

    def _maybe_compact(self) -> None:
        if self._log is None or self._log_records == 0:
            return
        dead = self._log_records - len(self._data)
        if dead <= 16:
            return
        if dead / self._log_records > self.compact_garbage_ratio:
            self.compact()

    def compact(self) -> None:
        """Rewrite the log to contain exactly the live entries."""
        with self._kv_lock:
            self._check_open()
            if self._log is None:
                return
            self._log.rewrite(
                _encode(_OP_PUT, key, self._data[key]) for key in self._keys
            )
            self._log_records = len(self._data)
            self._n_compactions += 1

    def stats(self) -> dict[str, int]:
        """Operational counters: live keys, log records, log bytes."""
        with self._kv_lock:
            self._check_open()
            return {
                "engine": self.engine_name,
                "live_keys": len(self._data),
                "log_records": self._log_records,
                "log_bytes": self._log.size_bytes() if self._log is not None else 0,
            }
