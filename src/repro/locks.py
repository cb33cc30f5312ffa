"""Locking primitives and the process-wide lock order.

The concurrent server (``repro.server.netserver``) dispatches requests
from a pool of worker threads while daemons tick on a background thread,
so every stateful layer the dispatch path touches carries a lock.  Two
rules keep that sane:

1. **One documented order.**  A thread holding a lock may only acquire
   locks *deeper* in :data:`LOCK_ORDER` (a higher rank).  The order is
   outermost-first and mirrors the call graph: scheduler and registry
   wrap requests, the repository wraps the stores, the stores wrap the
   WAL, and observability is innermost (anything may record a metric).
   ``scripts/check_lock_order.py`` lints nested acquisitions against
   this table, keyed by the canonical attribute names in
   :data:`LOCK_ATTRIBUTES`.

2. **Never hold a lock across user code.**  The scheduler claims a
   daemon's turn under its lock but runs ``run_once`` outside it; the
   servlet registry updates counters under its lock but dispatches
   handlers outside it; the socket server never holds its pool lock
   while serving a connection.

Reads that are single ``dict``/``list`` operations rely on the CPython
GIL and stay lock-free (documented per call site); anything compound —
check-then-act, multi-structure updates, WAL framing — takes a lock.
"""

from __future__ import annotations

import threading

#: Outermost-first lock levels.  A thread may acquire a lock only if its
#: level is strictly deeper (greater index) than every lock it already
#: holds.  ``scripts/check_lock_order.py`` enforces this syntactically.
LOCK_ORDER: tuple[str, ...] = (
    "router",        # ShardRouter._router_lock (shard availability view)
    "supervisor",    # ShardSupervisor._supervisor_lock (worker lifecycle)
    "scheduler",     # DaemonScheduler._sched_lock
    "registry",      # ServletRegistry._registry_lock
    "server",        # MemexServer._server_lock (clock, profiles, users)
    "repository",    # MemexRepository._repo_lock (single writer)
    "relational",    # Database per-table RWLocks (alphabetical by table)
    "versioning",    # VersionCoordinator._versions_lock
    "index",         # InvertedIndex._index_lock (whole-scoring-pass atomicity)
    "vectorizer",    # PageVectorizer._vectorizer_lock (leaf: one count per page)
    "kvstore",       # KVStore._kv_lock
    "wal",           # WriteAheadLog._wal_lock
    "cache",         # VersionedCache._cache_lock (one per read cache)
    "obs",           # metrics/tracer/log-hub internal locks
)

#: Canonical lock attribute name -> level.  New locks must register here
#: (and use the attribute name) so the lint can rank them.
LOCK_ATTRIBUTES: dict[str, str] = {
    "_router_lock": "router",
    "_supervisor_lock": "supervisor",
    "_sched_lock": "scheduler",
    "_registry_lock": "registry",
    "_server_lock": "server",
    "_repo_lock": "repository",
    "_rw": "relational",
    "_versions_lock": "versioning",
    "_index_lock": "index",
    "_dense_lock": "index",
    "_vectorizer_lock": "vectorizer",
    "_kv_lock": "kvstore",
    "_wal_lock": "wal",
    "_cache_lock": "cache",
    "_obs_lock": "obs",
}


class RWLock:
    """A readers-writer lock with writer preference.

    Many readers may hold the lock at once; a writer excludes everyone.
    Writers are preferred: once a writer is waiting, new readers queue
    behind it, so a steady read load cannot starve commits.  The write
    side is reentrant for the owning thread (a transaction's rollback
    path may re-enter), and the owning writer may also *read* without
    deadlocking.  Read acquisition is intentionally NOT reentrant —
    callers take the read lock at the public API boundary only, never in
    internal helpers, which the per-table usage in
    :mod:`repro.storage.relational` follows.
    """

    __slots__ = ("_cond", "_readers", "_writer", "_write_depth",
                 "_writers_waiting")

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer: int | None = None   # thread ident of the writer
        self._write_depth = 0
        self._writers_waiting = 0

    # -- read side ----------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # Reading under one's own write lock is a no-op grant.
                self._write_depth += 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth -= 1
                return
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- write side ---------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth += 1
                return
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._write_depth = 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_write by non-owning thread")
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # -- context managers ---------------------------------------------------

    def read(self) -> "_ReadGuard":
        return _ReadGuard(self)

    def write(self) -> "_WriteGuard":
        return _WriteGuard(self)


class _ReadGuard:
    __slots__ = ("_lock",)

    def __init__(self, lock: RWLock) -> None:
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire_read()

    def __exit__(self, *exc: object) -> None:
        self._lock.release_read()


class _WriteGuard:
    __slots__ = ("_lock",)

    def __init__(self, lock: RWLock) -> None:
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire_write()

    def __exit__(self, *exc: object) -> None:
        self._lock.release_write()
