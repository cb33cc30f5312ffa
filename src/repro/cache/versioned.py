"""Version-aware read-path caches driven by the versioning coordinator.

The paper promises "guaranteed immediate processing" for UI queries while
mining runs asynchronously; at scale that promise needs the read path
(search, trail replay, related pages) to stop recomputing from the
index and repository on every request.  The loosely-consistent versioning
system already tracks exactly what changed and when — so instead of
ad-hoc TTLs, every cache here *reads* the
:class:`~repro.storage.versioning.VersionCoordinator` (it is not a
consumer: it registers nothing, polls nothing, pins nothing) and derives
entry validity from version numbers:

* Each entry is stamped with a **validity token** captured when the
  underlying data was read: ``(published_version, watermark(c1), ...)``
  for the consumers the cache *watches* (the search cache watches the
  indexer; the trail cache watches indexer + classifier).
* A lookup recomputes the current token; a stored entry whose token
  differs is dropped (an *invalidation*) and recomputed —
  revalidation-on-miss.  Stale reads are therefore bounded
  by the same loose-consistency window the versioning protocol defines:
  the cache can never serve data older than the watched consumers'
  registered watermarks.
* Writes that bypass the versioning producer (visits, bookmarks, folder
  edits — immediate UI writes) are covered by **extra** stamps: cheap
  monotone counters (:class:`~repro.storage.repository.ChangeStamps`)
  the caller folds into the entry's validity alongside the version token.

The mid-read race matters even in a cooperative server: the token must
be captured *before* the underlying data is read and stored with the
result.  If the producer published while the caller computed, the stored
token is already behind and the very next lookup drops the entry — a
result computed from pre-publish state is never served as post-publish.
:meth:`VersionedCache.cached` is that whole protocol in one call; the
``token`` / ``get`` / ``put`` primitives it is built from stay public.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Any

from ..obs import MetricsRegistry, null_registry
from ..retrieval.dense import DenseIndexDaemon
from ..storage.versioning import VersionCoordinator

#: A validity token: published version + watched consumers' watermarks.
Token = tuple[int, ...]

#: Entry bounds of the server's read caches, and the cost bound each has.
SEARCH_ENTRIES = 2048
TRAIL_ENTRIES = 512
RELATED_ENTRIES = 1024
MAX_COST = 4_000_000

_MISS = object()


def payload_cost(obj: Any) -> int:
    """Deterministic size estimate for a JSON-ish payload.

    Counts one unit per scalar plus the length of strings, recursing
    through dicts/lists/tuples — proportional to serialized size without
    paying for an actual serialization.  Used to price cache entries
    against the ``max_cost`` bound.  Walks an explicit stack, so pricing
    an entry makes no Python call per node.

    >>> payload_cost({"hits": ["abc", "de"], "total": 2})
    21
    """
    cost = 0
    stack = [obj]
    pop, push = stack.pop, stack.extend
    while stack:
        item = pop()
        cost += 1
        kind = type(item)
        # The exact types a response is made of first, then subclasses.
        if kind is str:
            cost += len(item)
        elif kind is tuple or kind is list:
            push(item)
        elif kind is float or kind is int or item is None:
            pass
        elif isinstance(item, str):
            cost += len(item)
        elif isinstance(item, dict):
            push(item.keys())
            push(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            push(item)
    return cost


class VersionedCache:
    """A bounded LRU whose entries expire when versions move on.

    The entries are one :class:`~collections.OrderedDict` under one lock,
    least recently used first: a hit or a put moves its key to the end,
    and eviction pops from the front in constant time (a plain dict would
    scan the holes its front deletions leave).  Two bounds apply:
    ``max_entries`` entries, and a total *cost* of ``max_cost``, each
    entry priced at :meth:`put` time.  Eviction drops least-recently-used
    entries until both hold; an entry whose cost alone exceeds
    ``max_cost`` is refused (counted as an eviction) rather than flushing
    the cache to admit it.

    >>> from repro.storage.versioning import VersionCoordinator
    >>> cache = VersionedCache("demo", VersionCoordinator(), max_entries=2)
    >>> cache.put("a", 1) and cache.put("b", 2)   # True = admitted
    True
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)         # evicts "b": least recently used
    True
    >>> cache.get("b") is None
    True
    >>> cache.get("a"), cache.get("c")
    (1, 3)
    >>> cache.stats()["evictions"]
    1

    Parameters
    ----------
    name:
        Cache name, used as the ``cache`` metric label.
    versions:
        The coordinator whose producer/consumer positions drive validity.
    watch:
        Consumer names whose ack watermarks join the validity token.
        They must already be registered with *versions*.
    max_entries:
        Entry bound (must be >= 1).
    max_cost:
        Cost bound (must be >= 1), or ``None`` for no cost bound.
    metrics:
        Observability registry; exposes ``cache.hits`` / ``cache.misses``
        / ``cache.evictions`` / ``cache.invalidations`` pull counters and
        the ``cache.entries`` pull gauge, all labelled ``cache=<name>``.
    """

    def __init__(
        self,
        name: str,
        versions: VersionCoordinator,
        *,
        watch: tuple[str, ...] = (),
        max_entries: int = 1024,
        max_cost: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_cost is not None and max_cost < 1:
            raise ValueError("max_cost must be >= 1 (or None)")
        self.name = name
        self._versions = versions
        self._watch = tuple(watch)
        for consumer in self._watch:
            versions.watermark(consumer)   # fail fast on unknown consumers
        self._max_entries = max_entries
        self._max_cost = max_cost
        self._cache_lock = threading.Lock()
        # key -> (value, token, extra, cost), least recently used first.
        self._entries: OrderedDict[
            Hashable, tuple[Any, Token, Hashable, int]] = OrderedDict()
        self._cost = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        metrics = metrics if metrics is not None else null_registry()
        metrics.counter_func("cache.hits", lambda: self._hits, cache=name)
        metrics.counter_func("cache.misses", lambda: self._misses, cache=name)
        metrics.counter_func(
            "cache.evictions", lambda: self._evictions, cache=name)
        metrics.counter_func(
            "cache.invalidations", lambda: self._invalidations, cache=name)
        metrics.gauge_func(
            "cache.entries", lambda: len(self._entries), cache=name)

    # -- the protocol --------------------------------------------------------

    def token(self) -> Token:
        """The current validity token.

        Captured *before* reading the data about to be cached and stored
        with it, so a version published mid-read invalidates the entry
        instead of being masked by it.
        """
        versions = self._versions
        return (
            versions.published_version,
            *(versions.watermark(name) for name in self._watch),
        )

    def cached(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        *,
        extra: Hashable = (),
    ) -> Any:
        """Return the entry for *key*, running *compute* on a miss.

        The whole read protocol: take the token, look up, and on a miss or
        a stale token/*extra* (the entry is dropped) run ``compute()`` and
        store its result under the token taken *before* the compute.
        *extra* carries the change stamps of the non-versioned data the
        result depends on.  Counts exactly one hit or one miss.  The
        compute runs outside the cache's lock.
        """
        token = self.token()
        value = self._lookup(key, token, extra)
        if value is _MISS:
            value = compute()
            self.put(key, value, token=token, extra=extra)
        return value

    def _lookup(self, key: Hashable, token: Token, extra: Hashable) -> Any:
        with self._cache_lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry[1] == token and entry[2] == extra:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry[0]
                del self._entries[key]
                self._cost -= entry[3]
                self._invalidations += 1
            self._misses += 1
            return _MISS

    # -- primitives ---------------------------------------------------------

    def get(self, key: Hashable, *, extra: Hashable = ()) -> Any | None:
        """Return the cached value, or ``None`` on miss or staleness.

        *extra* must equal what was given to :meth:`put`; a mismatch (or a
        validity token older than the current one) drops the entry.
        """
        value = self._lookup(key, self.token(), extra)
        return None if value is _MISS else value

    def put(
        self,
        key: Hashable,
        value: Any,
        *,
        token: Token | None = None,
        extra: Hashable = (),
        cost: int | None = None,
    ) -> bool:
        """Cache *value* under *key*, stamped with its validity.

        *token* must be the one captured (via :meth:`token`) before the
        caller read the underlying data; omitting it stamps the current
        token, which is only safe when nothing can have changed since the
        preceding :meth:`get`.  *cost* defaults to a
        :func:`payload_cost` estimate of the value.  Returns ``False``
        (and caches nothing) when *cost* alone exceeds ``max_cost``.
        """
        stamp = token if token is not None else self.token()
        if cost is None:
            cost = payload_cost(value)
        elif cost < 0:
            raise ValueError("cost must be non-negative")
        max_cost = self._max_cost
        with self._cache_lock:
            entries = self._entries
            old = entries.pop(key, None)
            if old is not None:
                self._cost -= old[3]
            if max_cost is not None and cost > max_cost:
                self._evictions += 1
                return False
            entries[key] = (value, stamp, extra, cost)
            self._cost += cost
            while len(entries) > self._max_entries or (
                max_cost is not None and self._cost > max_cost
            ):
                _, victim = entries.popitem(last=False)   # least recent
                self._cost -= victim[3]
                self._evictions += 1
            return True

    def invalidate(self, key: Hashable) -> bool:
        """Explicitly drop one entry; returns whether it was present."""
        with self._cache_lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._cost -= entry[3]
            self._invalidations += 1
            return True

    def clear(self) -> int:
        """Drop everything; returns how many entries were dropped."""
        with self._cache_lock:
            dropped = len(self._entries)
            self._invalidations += dropped
            self._entries.clear()
            self._cost = 0
            return dropped

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, Any]:
        """Counters plus current occupancy, for the ``stats`` servlet."""
        with self._cache_lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "cost": self._cost,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "hit_rate": round(self._hits / lookups, 4) if lookups else 0.0,
            }


class ReadPathCaches:
    """The server's response caches: one :class:`VersionedCache` per read
    path, each reached through :meth:`repro.core.MemexServer.cached`.

    * ``search``   — two key shapes under one validity: a finished page
      keyed by (query, mode, scope, user or "", limit, offset), and the
      ranking the pages of that query are cut from — an immutable tuple
      of (url, score) rows — keyed by (query, mode, scope, user or "").
      A page miss reads the ranking through this same cache, so the
      pages of one query rank once and both kinds invalidate together.
    * ``trails``   — ``core/trails`` replay payloads per (user, topic
      folder, window).
    * ``related``  — hybrid related-pages responses per (canonical url,
      k).

    Watch sets encode which mining consumer feeds each read path: search
    results change when the **indexer** acks new versions; trails also
    change when the **classifier** does.  The related cache watches the
    **dense** index consumer; its co-visitation half is covered by the
    ``covisits`` change stamp callers fold into ``extra``.  Every watched
    consumer must already be registered with *versions*.
    """

    def __init__(
        self,
        versions: VersionCoordinator,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.search = VersionedCache(
            "search", versions, watch=("indexer",),
            max_entries=SEARCH_ENTRIES, max_cost=MAX_COST, metrics=metrics,
        )
        self.trails = VersionedCache(
            "trails", versions, watch=("indexer", "classifier"),
            max_entries=TRAIL_ENTRIES, max_cost=MAX_COST, metrics=metrics,
        )
        self.related = VersionedCache(
            "related", versions, watch=(DenseIndexDaemon.name,),
            max_entries=RELATED_ENTRIES, max_cost=MAX_COST, metrics=metrics,
        )

    def all(self) -> tuple[VersionedCache, ...]:
        return (self.search, self.trails, self.related)

    def sync(self) -> None:
        # Nothing to sync (caches are not consumers); bench/ladder.py calls it.
        pass

    def clear(self) -> int:
        return sum(cache.clear() for cache in self.all())

    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-cache counters, the ``cache`` section of the stats servlet."""
        return {cache.name: cache.stats() for cache in self.all()}
