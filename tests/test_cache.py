"""Unit tests for the versioned cache: its LRU bounds and its validity."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ReadPathCaches, VersionedCache, payload_cost
from repro.errors import VersioningError
from repro.obs import MetricsRegistry
from repro.server.protocol import SharedResponse
from repro.storage.versioning import VersionCoordinator

SRC = Path(__file__).resolve().parent.parent / "src"


def produce(vc, items):
    """Open, fill and publish one version."""
    vc.open_version()
    for item in items:
        vc.add_item(item)
    return vc.publish()


def lru(**bounds):
    """A cache whose token never moves: only its LRU policy acts."""
    return VersionedCache("lru", VersionCoordinator(), **bounds)


# ---------------------------------------------------------------------------
# The LRU policy
# ---------------------------------------------------------------------------

def test_lru_get_put_roundtrip():
    cache = lru(max_entries=8)
    assert cache.put("a", 1) is True
    assert cache.get("a") == 1
    assert cache.get("missing") is None
    assert len(cache) == 1


def test_lru_eviction_is_least_recently_used():
    cache = lru(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refresh "a": "b" is now LRU
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.stats()["evictions"] == 1


def test_lru_put_refreshes_recency_and_replaces_value():
    cache = lru(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)                  # replace refreshes recency too
    cache.put("c", 3)
    assert cache.get("b") is None and cache.get("a") == 10


def test_lru_cost_bound_evicts_until_fit():
    cache = lru(max_entries=100, max_cost=10)
    cache.put("a", "x", cost=4)
    cache.put("b", "y", cost=4)
    cache.put("c", "z", cost=4)         # 12 > 10: evicts "a"
    assert cache.get("a") is None
    assert cache.stats()["cost"] == 8
    assert cache.stats()["evictions"] == 1


def test_lru_oversized_entry_refused_not_flushed():
    cache = lru(max_entries=100, max_cost=10)
    cache.put("a", "x", cost=4)
    assert cache.put("big", "y", cost=11) is False
    assert cache.get("big") is None
    assert cache.get("a") == "x"        # resident entries survived
    assert cache.stats()["evictions"] == 1


def test_lru_replacing_entry_adjusts_cost():
    cache = lru(max_entries=10, max_cost=10)
    cache.put("a", "x", cost=6)
    cache.put("a", "y", cost=2)
    assert cache.stats()["cost"] == 2


def test_lru_delete_and_clear_count_invalidations():
    cache = lru(max_entries=10)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.invalidate("a") is True
    assert cache.invalidate("a") is False
    assert cache.clear() == 1
    stats = cache.stats()
    assert stats["invalidations"] == 2
    assert stats["entries"] == 0 and stats["cost"] == 0


def test_lru_bounds_are_global():
    """Both bounds hold for the cache as a whole: ``max_entries`` keys
    stay resident, and an entry costing any part of ``max_cost`` fits."""
    cache = lru(max_entries=3, max_cost=800)
    assert cache.put("big", "x", cost=700) is True
    assert cache.get("big") == "x"
    for i in range(10):
        cache.put(i, i, cost=1)
    assert len(cache) == 3
    assert [cache.get(i) for i in range(10)] == [None] * 7 + [7, 8, 9]


#: Fills a search-sized cache past its entry bound with search-shaped
#: keys and prints which of them stayed resident.
RESIDENT_PROBE = """
import json
from repro.cache import VersionedCache
from repro.storage.versioning import VersionCoordinator
cache = VersionedCache(
    "search", VersionCoordinator(), max_entries=2048, max_cost=4_000_000)
keys = [(f"query {i}", "ranked", "all", "", 10, 0) for i in range(3000)]
for key in keys:
    cache.put(key, key[0], cost=1700)
print(json.dumps([i for i, key in enumerate(keys) if cache.get(key)]))
"""


def test_lru_keeps_the_most_recent_keys_under_every_hash_seed():
    resident = []
    for seed in ("0", "1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", RESIDENT_PROBE], capture_output=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
        )
        assert done.returncode == 0, done.stderr.decode()
        resident.append(json.loads(done.stdout))
    assert resident[0] == list(range(3000 - 2048, 3000))
    assert resident[1] == resident[0] and resident[2] == resident[0]


def test_lru_validates_bounds():
    with pytest.raises(ValueError):
        lru(max_entries=0)
    with pytest.raises(ValueError):
        lru(max_cost=0)
    with pytest.raises(ValueError):
        lru().put("a", 1, cost=-1)


def test_lru_concurrent_access_is_safe():
    cache = lru(max_entries=64, max_cost=1000)
    errors = []

    def worker(base):
        try:
            for i in range(500):
                cache.put((base, i % 40), i, cost=i % 30)
                cache.get((base, (i * 7) % 40))
                if i % 50 == 0:
                    cache.invalidate((base, i % 40))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = cache.stats()
    assert stats["entries"] == len(cache) <= 64
    assert stats["hits"] + stats["misses"] == 4 * 500
    assert stats["cost"] <= 1000
    resident = [cache.get((t, i)) for t in range(4) for i in range(40)]
    assert len([v for v in resident if v is not None]) == len(cache)


# ---------------------------------------------------------------------------
# payload_cost
# ---------------------------------------------------------------------------

def test_payload_cost_scales_with_payload():
    small = payload_cost({"hits": [], "total": 0})
    big = payload_cost({"hits": ["u" * 100] * 50, "total": 50})
    assert big > small > 0
    assert payload_cost("abcd") == 5
    assert payload_cost(3.14) == 1


def _recursive_cost(obj):
    """The definition `payload_cost` prices by, one call per node."""
    if isinstance(obj, str):
        return 1 + len(obj)
    if isinstance(obj, dict):
        return 1 + sum(_recursive_cost(k) + _recursive_cost(v)
                       for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 1 + sum(_recursive_cost(v) for v in obj)
    return 1


class _Text(str):
    pass


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=12), st.text(max_size=6).map(_Text), st.binary(max_size=4))
_PAYLOADS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5),
    st.lists(inner, max_size=5).map(tuple),
    st.frozensets(st.text(max_size=4), max_size=4),
    st.sets(st.integers(), max_size=4),
    st.dictionaries(st.text(max_size=6), inner, max_size=5),
    st.dictionaries(st.text(max_size=6), inner, max_size=5).map(SharedResponse),
), max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_payload_cost_equals_the_recursive_definition(payload):
    assert payload_cost(payload) == _recursive_cost(payload)


# ---------------------------------------------------------------------------
# VersionedCache
# ---------------------------------------------------------------------------

@pytest.fixture
def versions():
    v = VersionCoordinator()
    v.register_consumer("indexer")
    v.register_consumer("classifier")
    v.register_consumer("dense")
    return v


def _read_primitives(cache, key, compute, *, extra=()):
    """The read protocol spelled out with the public primitives."""
    value = cache.get(key, extra=extra)
    if value is None:
        token = cache.token()            # before the compute
        value = compute()
        cache.put(key, value, token=token, extra=extra)
    return value


def _read_cached(cache, key, compute, *, extra=()):
    return cache.cached(key, compute, extra=extra)


@pytest.fixture(params=[_read_primitives, _read_cached], ids=["get+put", "cached"])
def read(request):
    """Both spellings of the protocol must behave identically."""
    return request.param


class _Compute:
    """A compute function that counts its calls."""

    def __init__(self, value, during=None):
        self.value, self.during, self.calls = value, during, 0

    def __call__(self):
        self.calls += 1
        if self.during is not None:
            self.during()
        return self.value


def test_versioned_cache_hit_while_versions_stable(versions, read):
    cache = VersionedCache("search", versions, watch=("indexer",))
    compute = _Compute({"hits": [1]})
    assert read(cache, "q", compute) == {"hits": [1]}
    assert read(cache, "q", compute) == {"hits": [1]}
    assert compute.calls == 1
    stats = cache.stats()
    assert (stats["hits"], stats["misses"]) == (1, 1)   # one count per call


def test_versioned_cache_rejects_unknown_watch_consumer(versions):
    with pytest.raises(VersioningError):
        VersionedCache("bad", versions, watch=("nobody",))


def test_publish_invalidates_entries(versions, read):
    cache = VersionedCache("search", versions, watch=("indexer",))
    compute = _Compute("result")
    read(cache, "q", compute)
    produce(versions, ["u1"])
    read(cache, "q", compute)
    assert compute.calls == 2
    stats = cache.stats()
    assert stats["invalidations"] == 1
    assert (stats["hits"], stats["misses"]) == (0, 2)


def test_watched_consumer_ack_invalidates_entries(versions, read):
    """The consumer-lag case: a result cached while the indexer lagged
    must be dropped when the indexer catches up — the index content
    changed even though no new version was published."""
    cache = VersionedCache("search", versions, watch=("indexer",))
    produce(versions, ["u1"])             # indexer now lags at 0
    compute = _Compute("index-result")
    read(cache, "q", compute)
    read(cache, "q", compute)
    assert compute.calls == 1            # still valid: lag unchanged
    watermark, _ = versions.poll("indexer")
    versions.ack("indexer", watermark)   # indexer catches up
    read(cache, "q", compute)
    assert compute.calls == 2
    assert cache.stats()["invalidations"] == 1


def test_unwatched_consumer_ack_does_not_invalidate(versions, read):
    cache = VersionedCache("producer", versions)    # watches producer only
    produce(versions, ["u1"])
    compute = _Compute("v")
    read(cache, "k", compute)
    watermark, _ = versions.poll("classifier")
    versions.ack("classifier", watermark)
    read(cache, "k", compute)
    assert compute.calls == 1


def test_extra_stamp_mismatch_invalidates(versions, read):
    cache = VersionedCache("search", versions)
    compute = _Compute("result")
    read(cache, "q", compute, extra=(7,))
    read(cache, "q", compute, extra=(7,))
    assert compute.calls == 1
    read(cache, "q", compute, extra=(8,))           # a UI write happened
    assert compute.calls == 2
    assert cache.stats()["invalidations"] == 1
    read(cache, "q", compute, extra=(8,))
    assert compute.calls == 2


def test_publish_during_compute_is_not_masked(versions, read):
    """The mid-read race: the token is taken before the compute, the
    producer publishes during it, so the entry is stored already stale
    and the next read recomputes instead of serving pre-publish state."""
    cache = VersionedCache("search", versions, watch=("indexer",))
    racing = _Compute("pre-publish", during=lambda: produce(versions, ["u1"]))
    assert read(cache, "q", racing) == "pre-publish"    # served once
    calm = _Compute("post-publish")
    assert read(cache, "q", calm) == "post-publish"
    assert read(cache, "q", calm) == "post-publish"
    assert (racing.calls, calm.calls) == (1, 1)
    stats = cache.stats()
    assert (stats["hits"], stats["misses"]) == (1, 2)


def test_cached_can_hold_none(versions):
    """``get`` cannot tell a cached ``None`` from a miss; ``cached`` can."""
    cache = VersionedCache("search", versions)
    compute = _Compute(None)
    assert cache.cached("q", compute) is None
    assert cache.cached("q", compute) is None
    assert compute.calls == 1


def test_caches_are_not_versioning_consumers(versions):
    """Caches read the coordinator; they register nothing, so nothing of
    theirs can lag, pin gc or outlive a swapped-out bundle."""
    before = versions.consumers()
    ReadPathCaches(versions)
    assert versions.consumers() == before

    from repro.core import MemexServer
    with MemexServer(lambda url: None) as server:
        consumers = server.repo.versions.consumers()
        assert not [name for name in consumers if name.startswith("cache.")]
        server.caches = ReadPathCaches(server.repo.versions)
        assert server.repo.versions.consumers() == consumers


def test_versioned_cache_metrics_exported(versions):
    registry = MetricsRegistry()
    cache = VersionedCache("search", versions, metrics=registry)
    cache.put("q", "r")
    cache.get("q")
    cache.get("nope")
    assert registry.counter_value("cache.hits", cache="search") == 1
    assert registry.counter_value("cache.misses", cache="search") == 1
    assert registry.gauge_value("cache.entries", cache="search") == 1


def test_read_path_caches_bundle(versions):
    caches = ReadPathCaches(versions)
    names = {"search", "trails", "related"}
    assert {c.name for c in caches.all()} == names
    caches.search.put("q", 1)
    caches.trails.put("t", 2)
    caches.related.put("r", 3)
    stats = caches.stats()
    assert set(stats) == names
    assert caches.clear() == 3
    assert all(s["entries"] == 0 for s in caches.stats().values())
