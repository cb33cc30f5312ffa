"""repro.cache — the version-aware read-path cache subsystem.

Each :class:`VersionedCache` is a bounded LRU (one lock, entry + cost
bounds) whose invalidation is driven by the loosely-consistent
versioning system rather than TTLs: it reads the coordinator (it is not
a consumer), stamps entries with a validity token of (published version,
watched consumers' watermarks), and drops entries the moment the token
moves on.  :class:`ReadPathCaches` bundles the three server response
caches — search results, trail replays, related pages — which the
servlet handlers reach through :meth:`repro.core.MemexServer.cached`.
"""

from .versioned import ReadPathCaches, Token, VersionedCache, payload_cost

__all__ = [
    "ReadPathCaches",
    "Token",
    "VersionedCache",
    "payload_cost",
]
