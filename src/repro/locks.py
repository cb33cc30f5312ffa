"""The process-wide lock order.

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
    "relational",    # Table._table_lock, one per table (alphabetical by table)
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
    "_table_lock": "relational",
    "_versions_lock": "versioning",
    "_index_lock": "index",
    "_dense_lock": "index",
    "_vectorizer_lock": "vectorizer",
    "_kv_lock": "kvstore",
    "_wal_lock": "wal",
    "_cache_lock": "cache",
    "_obs_lock": "obs",
}

