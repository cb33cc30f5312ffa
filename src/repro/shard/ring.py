"""Consistent-hash ring mapping users to shards.

The partition key is the user who owns each surf trail: every servlet a
user calls about *their own* archive lands on one shard, so shard-local
state (visits, folders, classifier models, index) never crosses the
ring.  The hash is :mod:`hashlib`-based — NOT the builtin ``hash()``,
which is salted per process — so the router, every worker, and every
test agree on the placement of a user without coordination.

Virtual nodes smooth the split: each shard owns ``HashRing.VNODES`` (64)
points on the ring, so the largest shard holds within a few
percent of ``1/n`` of a uniform key population.  Consistency matters for
growth (a future resharding moves only the keys between a shard's old
and new points), but within one cluster generation the map is simply a
pure deterministic function ``user_id -> shard``.
"""

from __future__ import annotations

import bisect
import hashlib


def _point(label: str) -> int:
    """Position of *label* on the 64-bit ring (stable across processes)."""
    digest = hashlib.sha1(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Immutable consistent-hash ring over shard ids ``0..n_shards-1``.

    The map is a pure function of ``(n_shards, user_id)``:
    every process that builds the same-shaped ring places every user
    identically, with no coordination and no salted state.

    >>> ring = HashRing(4)
    >>> ring.shard_for("user00") == HashRing(4).shard_for("user00")
    True
    >>> HashRing(1).shard_for("anyone")
    0
    >>> from collections import Counter
    >>> spread = Counter(ring.shard_for(f"u{i:04d}") for i in range(1000))
    >>> sorted(spread) == [0, 1, 2, 3] and min(spread.values()) > 100
    True
    """

    #: Points each shard owns on the ring.
    VNODES = 64

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        points: list[tuple[int, int]] = []
        for shard in range(n_shards):
            for v in range(self.VNODES):
                points.append((_point(f"shard-{shard}#{v}"), shard))
        points.sort()
        self._hashes = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, user_id: str) -> int:
        """The shard owning *user_id*: first ring point at or after its hash."""
        if self.n_shards == 1:
            return 0
        h = _point(user_id)
        i = bisect.bisect_left(self._hashes, h)
        if i == len(self._hashes):
            i = 0  # wrap past the last point
        return self._owners[i]
