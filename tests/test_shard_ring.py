"""Consistent-hash ring: determinism, coverage, and minimal movement."""

from collections import Counter

import pytest

from repro.shard.ring import HashRing


def test_single_shard_maps_everything_to_zero():
    ring = HashRing(1)
    assert all(ring.shard_for(f"u{i}") == 0 for i in range(50))


def test_assignment_is_deterministic_across_instances():
    users = [f"user{i:03d}" for i in range(200)]
    a, b = HashRing(4), HashRing(4)
    assert [a.shard_for(u) for u in users] == [b.shard_for(u) for u in users]


def test_spread_covers_every_shard_without_pathological_skew():
    ring = HashRing(4)
    users = [f"user{i:04d}" for i in range(400)]
    spread = Counter(ring.shard_for(user) for user in users)
    assert set(spread) == {0, 1, 2, 3}
    assert all(count > 0 for count in spread.values())
    # With 64 vnodes per shard the largest shard stays within a small
    # multiple of the fair share.
    assert max(spread.values()) <= 3 * (len(users) // 4)


def test_growing_the_ring_moves_a_minority_of_keys():
    users = [f"user{i:04d}" for i in range(600)]
    before, after = HashRing(3), HashRing(4)
    moved = sum(1 for u in users if before.shard_for(u) != after.shard_for(u))
    # Consistent hashing: roughly 1/4 of keys should move, never most.
    assert 0 < moved < len(users) // 2


def test_invalid_configuration_is_rejected():
    with pytest.raises(ValueError):
        HashRing(0)
