"""End-to-end cache invalidation: races, lag, eviction, and equality.

The acceptance bar for the read-path cache: no read ever returns data
older than the consumers' registered version window, and cached reads
are bit-identical to uncached recomputes.  Every test here compares the
cached servlet response against a recompute with caching disabled on the
very same server state.
"""

import json
import random

import pytest

from repro.cache import VersionedCache
from repro.core import MemexSystem
from repro.webgen import build_workload


@pytest.fixture(scope="module")
def cache_workload():
    return build_workload(
        seed=321, num_users=4, days=8, pages_per_leaf=6, bookmark_prob=0.3,
    )


@pytest.fixture
def live(cache_workload):
    system = MemexSystem.from_workload(cache_workload)
    system.replay(cache_workload.events)
    return cache_workload, system


def _read_both(system, user, servlet, **kwargs):
    """One cached dispatch and one uncached recompute of the same read."""
    server = system.server
    cached = server.transport.request(user, {"servlet": servlet, **kwargs})
    saved, server.caches = server.caches, None
    try:
        uncached = server.transport.request(user, {"servlet": servlet, **kwargs})
    finally:
        server.caches = saved
    assert cached["status"] == "ok", cached
    assert uncached["status"] == "ok", uncached
    return cached, uncached


def _same(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _queries(workload, n=8, seed=55):
    rng = random.Random(seed)
    urls = sorted(workload.corpus.pages)
    out = []
    for _ in range(n):
        words = workload.corpus.pages[rng.choice(urls)].text.split()
        start = rng.randrange(max(1, len(words) - 2))
        out.append(" ".join(words[start:start + 2]))
    return out


def _a_folder_user(workload, system):
    for profile in workload.profiles:
        if system.server.repo.user_folders(profile.user_id):
            return profile
    raise AssertionError("no user with folders")


def test_repeat_search_served_from_cache_and_identical(live):
    workload, system = live
    user = workload.profiles[0].user_id
    query = _queries(workload, n=1)[0]
    first, uncached = _read_both(system, user, "search", query=query, limit=5)
    before = system.server.caches.search.stats()["hits"]
    second = system.server.transport.request(
        user, {"servlet": "search", "query": query, "limit": 5},
    )
    assert _same(first, uncached) and _same(first, second)
    assert system.server.caches.search.stats()["hits"] == before + 1


def test_new_publish_invalidates_search_results(live):
    """A fresh visit crawled and indexed must show up in search — the
    producer's publish (and the indexer's catch-up) drops the entry."""
    workload, system = live
    server = system.server
    profile = workload.profiles[0]
    applet = system.connect(profile.user_id)
    # An unvisited corpus page: its text enters the index only after the
    # new visit is crawled, so pre-write cached results cannot cover it.
    visited = {v["url"] for v in server.repo.db.table("visits").scan()}
    url = next(u for u in sorted(workload.corpus.pages) if u not in visited)
    query = " ".join(workload.corpus.pages[url].text.split()[:2])

    stale, stale_un = _read_both(
        system, profile.user_id, "search", query=query, limit=50)
    assert _same(stale, stale_un)

    applet.record_visit(url, at=server.now + 3600.0)
    server.process_background_work()

    fresh, fresh_un = _read_both(
        system, profile.user_id, "search", query=query, limit=50)
    assert _same(fresh, fresh_un)
    assert url in {h["url"] for h in fresh["hits"]}


def test_consumer_lag_forces_revalidation(live):
    """A result cached while the indexer lagged the producer must be
    recomputed once the indexer acks — the watch-set half of the token."""
    workload, system = live
    server = system.server
    profile = workload.profiles[0]
    applet = system.connect(profile.user_id)
    visited = {v["url"] for v in server.repo.db.table("visits").scan()}
    url = next(u for u in sorted(workload.corpus.pages) if u not in visited)
    query = " ".join(workload.corpus.pages[url].text.split()[:2])

    applet.record_visit(url, at=server.now + 3600.0)
    server.crawler.run_once()            # producer publishes; indexer lags
    assert server.repo.versions.staleness("indexer") > 0

    lagged, lagged_un = _read_both(
        system, profile.user_id, "search", query=query, limit=50)
    assert _same(lagged, lagged_un)      # identically stale: index unchanged
    assert url not in {h["url"] for h in lagged["hits"]}

    before = server.caches.search.stats()["invalidations"]
    server.indexer.run_once()            # indexer catches up: entries die
    caught_up, caught_up_un = _read_both(
        system, profile.user_id, "search", query=query, limit=50)
    assert _same(caught_up, caught_up_un)
    assert url in {h["url"] for h in caught_up["hits"]}
    assert server.caches.search.stats()["invalidations"] > before


def test_producer_advance_mid_read_is_not_masked(live, monkeypatch):
    """The mid-read race, end to end: the producer publishes a version
    WHILE the search servlet is computing.  The result — computed from
    pre-publish state — may be returned once, but must not be served
    from cache afterwards."""
    workload, system = live
    server = system.server
    profile = workload.profiles[0]
    applet = system.connect(profile.user_id)
    visited = {v["url"] for v in server.repo.db.table("visits").scan()}
    url = next(u for u in sorted(workload.corpus.pages) if u not in visited)
    applet.record_visit(url, at=server.now + 3600.0)   # crawler backlog

    calls = {"n": 0}
    real_search = server.search_engine.search

    def racing_search(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            server.crawler.run_once()    # producer publishes mid-compute
        return real_search(*args, **kwargs)

    monkeypatch.setattr(server.search_engine, "search", racing_search)
    query = _queries(workload, n=1)[0]
    request = {"servlet": "search", "query": query, "limit": 5}
    server.transport.request(profile.user_id, request)
    assert calls["n"] == 1
    # The raced entry is stamped pre-publish: the next read recomputes.
    second = server.transport.request(profile.user_id, request)
    assert second["status"] == "ok"
    assert calls["n"] == 2
    # Versions are stable now, so the recomputed entry serves the third.
    third = server.transport.request(profile.user_id, request)
    assert calls["n"] == 2
    assert _same(second, third)


def test_ui_write_invalidates_scoped_search(live):
    """scope=mine candidates come from the visits table — a write that
    bypasses versioning entirely.  Change stamps must catch it."""
    workload, system = live
    server = system.server
    profile = workload.profiles[0]
    applet = system.connect(profile.user_id)
    visited = {v["url"] for v in server.repo.db.table("visits").scan()}
    url = next(u for u in sorted(workload.corpus.pages) if u not in visited)
    # The page is already indexed via another user's visit? No — force it
    # into the index first so only the candidate set changes afterwards.
    other = workload.profiles[1]
    system.connect(other.user_id).record_visit(url, at=server.now + 3600.0)
    server.process_background_work()

    query = " ".join(workload.corpus.pages[url].text.split()[:2])
    mine, mine_un = _read_both(
        system, profile.user_id, "search",
        query=query, limit=50, scope="mine")
    assert _same(mine, mine_un)
    assert url not in {h["url"] for h in mine["hits"]}

    applet.record_visit(url, at=server.now + 7200.0)   # no daemon work at all
    after, after_un = _read_both(
        system, profile.user_id, "search",
        query=query, limit=50, scope="mine")
    assert _same(after, after_un)
    assert url in {h["url"] for h in after["hits"]}


def test_trail_cache_invalidated_by_bookmark(live):
    workload, system = live
    server = system.server
    profile = _a_folder_user(workload, system)
    applet = system.connect(profile.user_id)
    path = sorted(profile.folders)[0]

    first, first_un = _read_both(
        system, profile.user_id, "trail", folder_path=path)
    assert _same(first, first_un)
    hits_before = server.caches.trails.stats()["hits"]
    again = server.transport.request(
        profile.user_id, {"servlet": "trail", "folder_path": path})
    assert _same(first, again)
    assert server.caches.trails.stats()["hits"] == hits_before + 1

    # A deliberate bookmark is a UI write outside versioning: stamps must
    # expire the trail entry and the recompute must match uncached.
    visited = {v["url"] for v in server.repo.db.table("visits").scan()}
    url = next(u for u in sorted(workload.corpus.pages) if u not in visited)
    applet.bookmark(url, path, at=server.now + 3600.0)
    after, after_un = _read_both(
        system, profile.user_id, "trail", folder_path=path)
    assert _same(after, after_un)


def test_eviction_under_memory_bound_stays_correct(live):
    workload, system = live
    server = system.server
    server.caches.search = VersionedCache(
        "search", server.repo.versions, watch=("indexer",),
        max_entries=4, max_cost=100_000,
    )
    user = workload.profiles[0].user_id
    queries = _queries(workload, n=12, seed=77)
    for query in queries:
        cached, uncached = _read_both(
            system, user, "search", query=query, limit=10)
        assert _same(cached, uncached)
    stats = server.caches.search.stats()
    assert stats["evictions"] > 0
    assert stats["entries"] <= 4
    # Evicted or not, every repeat still matches the uncached recompute.
    for query in queries:
        cached, uncached = _read_both(
            system, user, "search", query=query, limit=10)
        assert _same(cached, uncached)


def test_cache_consumers_do_not_stall_gc(live):
    _, system = live
    server = system.server
    server.process_background_work()
    server.repo.versions.gc()
    assert server.repo.versions.live_versions() <= 1


def test_fuzzed_reads_match_uncached_under_writes(live):
    """Fuzz: random interleaving of reads (search all/mine, trail,
    popular-near-trail, related pages) and writes (visits, bookmarks,
    daemon ticks).
    Every single cached read must equal an uncached recompute on the
    identical server state."""
    workload, system = live
    server = system.server
    rng = random.Random(1337)
    queries = _queries(workload, n=6, seed=11)
    urls = sorted(workload.corpus.pages)
    folder_profile = _a_folder_user(workload, system)
    paths = sorted(folder_profile.folders)
    # Visited pages, so related_pages has co-visit neighbours; few, so
    # later reads hit entries cached before the writes between them.
    related_urls = rng.sample(sorted({
        row["url"] for row in server.repo.db.table("visits").scan()}), 3)
    checked = related = 0
    for step in range(160):
        profile = rng.choice(workload.profiles)
        op = rng.random()
        if op < 0.45:
            cached, uncached = _read_both(
                system, profile.user_id, "search",
                query=rng.choice(queries),
                limit=rng.choice([3, 10]),
                offset=rng.choice([0, 2]),
                scope=rng.choice(["all", "mine", "community"]),
            )
            assert _same(cached, uncached), f"search diverged at step {step}"
            checked += 1
        elif op < 0.60:
            servlet = rng.choice(["trail", "popular_near_trail"])
            cached, uncached = _read_both(
                system, folder_profile.user_id, servlet,
                folder_path=rng.choice(paths),
            )
            assert _same(cached, uncached), (
                f"{servlet} diverged at step {step}")
            checked += 1
        elif op < 0.70:
            cached, uncached = _read_both(
                system, profile.user_id, "related_pages",
                url=rng.choice(related_urls), k=rng.choice([3, 10]),
            )
            assert _same(cached, uncached), (
                f"related_pages diverged at step {step}")
            related += 1
        elif op < 0.85:
            system.connect(profile.user_id).record_visit(
                rng.choice(urls), at=server.now + 60.0)
        elif op < 0.92:
            applet = system.connect(folder_profile.user_id)
            applet.bookmark(
                rng.choice(urls), rng.choice(paths), at=server.now + 60.0)
        else:
            server.tick()
    server.process_background_work()
    assert checked > 30 and related > 5
    stats = server.caches.stats()
    assert all(s["hits"] + s["misses"] > 0 for s in stats.values())
    assert stats["related"]["hits"] > 0     # served entries were checked
