"""The benchmark's grip on the program, checked in tier-1.

``bench/`` reaches into ``repro`` by name — imports at module top and
attributes on a live :class:`MemexServer` inside the layer ladder.  A
refactor that renames one of them is otherwise noticed only by the 90 s
``bench/run.py --smoke`` CI step; this notices in well under a second.
"""

import importlib
from pathlib import Path

from repro.core.memex import MemexServer

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
