"""The benchmark's grip on the program, checked in tier-1.

``bench/`` reaches into ``repro`` by name — imports at module top and
attributes on a live :class:`MemexServer` inside the layer ladder.  A
refactor that renames one of them is otherwise noticed only by the 90 s
``bench/run.py --smoke`` CI step; this notices in well under a second.
"""

import importlib
from pathlib import Path

from repro.core.memex import MemexServer
from repro.server.daemons import FetchedPage
from repro.shard.gather import SCATTER_REWRITERS

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_bench_modules_import(monkeypatch):
    """Every ``repro.*`` name the ladder, the workloads and the served
    child pull at import time resolves."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    for module in ("ladder", "workloads", "serve_child"):
        importlib.import_module(module)


def test_server_exposes_what_the_ladder_reaches_for():
    with MemexServer(lambda url: None) as server:
        search = server.caches.search
        for primitive in ("get", "put", "token", "invalidate"):
            assert callable(getattr(search, primitive)), primitive
        # The ladder spells the read protocol out with these signatures.
        token = search.token()
        assert search.get("k", extra=(1,)) is None
        assert search.put("k", {"hits": []}, token=token, extra=(1,)) is True
        assert search.get("k", extra=(1,)) == {"hits": []}
        assert search.invalidate("k") is True
        assert server.caches.clear() == 0
        server.caches.sync()
        for name in ("registry", "dispatcher", "transport", "search_engine",
                     "index", "dense_index", "covisit"):
            assert getattr(server, name) is not None, name
        daemons = [server.crawler, server.indexer, server.dense, server.covisit,
                   server.classifier, server.themes, server.discovery]
        assert len({daemon.name for daemon in daemons}) == 7
        assert all(callable(daemon.run_once) for daemon in daemons)


def test_the_ladders_hand_copied_search_key_is_the_handlers():
    """``bench/ladder.py`` ``_callees_on`` spells the search cache key and
    its ``extra`` stamps out by hand; on a miss ``_hit_path`` records
    nothing, so a drift would pass silently.  Built here exactly as there."""
    pages = {
        f"http://s/{i}": FetchedPage(f"http://s/{i}", f"T{i}", "jazz piano trio " * 3)
        for i in range(3)
    }
    with MemexServer(pages.get) as server:
        ask = server.registry.dispatch
        user = "u"
        ask({"servlet": "register_user", "user_id": user})
        for i, url in enumerate(pages):
            ask({"servlet": "visit", "user_id": user, "url": url, "at": float(i)})
        server.process_background_work()
        repo, cache = server.repo, server.caches.search
        for asked_mode in ("ranked", "boolean", "hybrid"):
            for asked_scope in ("all", "mine", "community"):
                for window in ({}, {"limit": 2, "offset": 1}):
                    p = {"servlet": "search", "query": "jazz", "mode": asked_mode,
                         "scope": asked_scope, **window}
                    assert ask({**p, "user_id": user})["total"] == 3
                    # -- from here: bench/ladder.py, _callees_on
                    query, mode = p["query"], p.get("mode", "ranked")
                    scope, limit, offset = (
                        p.get("scope", "all"), p.get("limit", 10), p.get("offset", 0))
                    key = (query, mode, scope, user if scope == "mine" else "",
                           limit, offset)
                    stamps = repo.stamps
                    extra = (
                        (stamps.pages, stamps.visits)
                        if scope in ("mine", "community") else (stamps.pages,))
                    if mode == "hybrid":
                        extra = (*extra, stamps.covisits,
                                 repo.versions.watermark(server.dense.name))
                    # -- to here
                    assert cache.get(key, extra=extra) is not None, p


def test_the_rest_of_what_the_ladder_and_the_served_child_call():
    p = {"servlet": "search", "query": "q", "mode": "hybrid", "limit": 3, "offset": 6}
    assert SCATTER_REWRITERS["search"](p) == {**p, "offset": 0, "limit": 1_000_000}
    with MemexServer(lambda url: None) as server:
        assert server.now == 0.0
        assert server.restore_state() == {"models": 0}
        assert server.dispatcher.shard_for("anyone") == 0
        assert server.covisit.decay > 0 and server.dense.name
        with server.listen(workers=8) as net:
            assert net.address[1] > 0
