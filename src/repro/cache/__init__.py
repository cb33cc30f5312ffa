"""repro.cache — the version-aware read-path cache subsystem.

A sharded LRU core (:class:`ShardedLRU`: per-shard locks, entry + size
bounds) under version-aware caches (:class:`VersionedCache`) whose
invalidation is driven by the loosely-consistent versioning system rather
than TTLs: each cache reads the coordinator (it is not a consumer), stamps
entries with a validity token of (published version, watched consumers'
watermarks), and drops entries the moment the token moves on.
:class:`ReadPathCaches` bundles the three server read paths — search
results, classification posteriors, trail replay graphs — and is wired
through the servlet handlers in :class:`repro.core.MemexServer`.
"""

from .lru import ShardedLRU
from .versioned import ReadPathCaches, Token, VersionedCache, payload_cost

__all__ = [
    "ReadPathCaches",
    "ShardedLRU",
    "Token",
    "VersionedCache",
    "payload_cost",
]
