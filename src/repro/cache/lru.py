"""Sharded LRU cache core: per-shard locks, entry and size bounds.

The read-path caches (:mod:`repro.cache.versioned`) all sit on this core.
Keys are hashed onto *shards*; each shard is an insertion-ordered dict
protected by its own :class:`threading.Lock`, so concurrent readers on a
future multi-threaded server contend per shard, not per cache.  Within a
shard, recency order is maintained by delete-and-reinsert (a dict is
insertion-ordered, so the last key is the most recently used).

Two bounds apply, both enforced per shard (each shard gets an equal split
of the global budget, the standard sharded-cache approximation):

* ``max_entries`` — how many entries may live in the cache;
* ``max_cost``   — total *cost* of resident entries, where the caller
  prices each entry at :meth:`ShardedLRU.put` time (payload size, node
  count, ... — the cache never inspects values).

Eviction is strictly least-recently-used within the shard.  An entry
whose cost alone exceeds the shard budget is refused outright (counted as
an eviction) rather than wiping the whole shard to admit it.

>>> cache = ShardedLRU(max_entries=2, shards=1)
>>> cache.put("a", 1) and cache.put("b", 2)   # True = admitted
True
>>> cache.get("a")
1
>>> cache.put("c", 3)         # evicts "b": least recently used
True
>>> cache.get("b") is None
True
>>> "a" in cache and "c" in cache
True
>>> cache.stats()["evictions"]
1
"""

from __future__ import annotations

import threading
from collections.abc import Hashable
from typing import Any


class _Shard:
    """One lock + one recency-ordered ``key -> (value, cost)`` map."""

    __slots__ = ("lock", "data", "cost", "hits", "misses", "evictions",
                 "invalidations")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.data: dict[Hashable, tuple[Any, int]] = {}
        self.cost = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0


class ShardedLRU:
    """Bounded LRU map with per-shard locking.

    Parameters
    ----------
    max_entries:
        Global entry bound (must be >= 1); split evenly across shards.
    max_cost:
        Global cost bound, or ``None`` for unbounded cost (entry bound
        still applies).
    shards:
        Number of independently locked shards (must be >= 1).
    """

    def __init__(
        self,
        *,
        max_entries: int = 1024,
        max_cost: int | None = None,
        shards: int = 8,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if max_cost is not None and max_cost < 1:
            raise ValueError("max_cost must be >= 1 (or None)")
        self.max_entries = max_entries
        self.max_cost = max_cost
        self._shards = tuple(_Shard() for _ in range(shards))
        # Per-shard budgets: ceil-split so small global bounds never round
        # a shard's budget down to zero.
        n = shards
        self._entries_per_shard = (max_entries + n - 1) // n
        self._cost_per_shard = (
            (max_cost + n - 1) // n if max_cost is not None else None
        )

    def _shard_for(self, key: Hashable) -> _Shard:
        return self._shards[hash(key) % len(self._shards)]

    # -- core operations ----------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing its recency) or *default*."""
        shard = self._shard_for(key)
        with shard.lock:
            entry = shard.data.pop(key, None)
            if entry is None:
                shard.misses += 1
                return default
            shard.data[key] = entry        # reinsert: now most recent
            shard.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any, *, cost: int = 1) -> bool:
        """Insert or replace an entry, evicting LRU entries to fit.

        Returns ``False`` (and caches nothing) when *cost* alone exceeds
        the shard's cost budget — one oversized payload must not flush a
        whole shard of useful entries.
        """
        if cost < 0:
            raise ValueError("cost must be non-negative")
        shard = self._shard_for(key)
        with shard.lock:
            old = shard.data.pop(key, None)
            if old is not None:
                shard.cost -= old[1]
            if self._cost_per_shard is not None and cost > self._cost_per_shard:
                shard.evictions += 1
                return False
            shard.data[key] = (value, cost)
            shard.cost += cost
            while len(shard.data) > self._entries_per_shard or (
                self._cost_per_shard is not None
                and shard.cost > self._cost_per_shard
            ):
                victim = next(iter(shard.data))    # least recently used
                _, victim_cost = shard.data.pop(victim)
                shard.cost -= victim_cost
                shard.evictions += 1
            return True

    def delete(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present."""
        shard = self._shard_for(key)
        with shard.lock:
            entry = shard.data.pop(key, None)
            if entry is None:
                return False
            shard.cost -= entry[1]
            shard.invalidations += 1
            return True

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                dropped += len(shard.data)
                shard.invalidations += len(shard.data)
                shard.data.clear()
                shard.cost = 0
        return dropped

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s.data) for s in self._shards)

    def __contains__(self, key: Hashable) -> bool:
        shard = self._shard_for(key)
        with shard.lock:
            return key in shard.data

    @property
    def cost(self) -> int:
        """Total cost of resident entries."""
        return sum(s.cost for s in self._shards)

    def stats(self) -> dict[str, int]:
        """Aggregate counters: hits, misses, evictions, invalidations,
        plus current ``entries`` and ``cost``."""
        return {
            "entries": len(self),
            "cost": self.cost,
            "hits": sum(s.hits for s in self._shards),
            "misses": sum(s.misses for s in self._shards),
            "evictions": sum(s.evictions for s in self._shards),
            "invalidations": sum(s.invalidations for s in self._shards),
        }
