"""A search session ranks once: the pages of one query share one ranking.

The ``search`` cache holds two kinds of entry under one validity: a page,
keyed by the whole request shape, and the ranking its pages are cut
from, keyed without the window.  What must hold:

* every page of every mode × scope, at offsets 0, 10 and 20 and at
  ``limit=30``, is the frame a server with ``caches = None`` sends, and
  stays so after a visit, a crawl and an index run move the validity;
* a session's pages call ``SearchEngine.search`` once and hybrid
  ``fuse_hybrid`` once, while the uncached server ranks per page;
* a ranking never outlives its validity: a visit between two pages of a
  ``scope=mine`` query reaches the next page's ``total``.
"""

import pytest

import repro.core.search as search_module
from repro.core import MemexSystem
from repro.core.search import SEARCH_MODES, SEARCH_SCOPES
from repro.server.protocol import decode_message, encode_message
from repro.webgen import build_workload

SESSION = [{"offset": offset} for offset in (0, 10, 20)] + [{"limit": 30}]


@pytest.fixture(scope="module")
def workload():
    return build_workload(seed=5, num_users=4, days=6.0, pages_per_leaf=5)


@pytest.fixture()
def system(workload):
    system = MemexSystem.from_workload(workload)
    system.replay(workload.events)
    system.server.process_background_work()
    yield system
    system.close()


def _frame(server, user, payload):
    wire = encode_message({"servlet": "search", **payload, "user_id": user})
    return server.transport._serve(wire, user)


def _uncached(server, send):
    saved, server.caches = server.caches, None
    try:
        return send()
    finally:
        server.caches = saved


def _user_and_query(workload, server):
    """A user, and the first two words of a page they visited: a query
    with more than 20 ranked matches in every scope but ``boolean``."""
    user = workload.profiles[0].user_id
    url = server.repo.user_visits(user)[0]["url"]
    return user, " ".join(workload.corpus.pages[url].text.split()[:2])


def _sessions(query):
    return [
        [{"query": query, "mode": mode, "scope": scope, **window}
         for window in SESSION]
        for mode in SEARCH_MODES for scope in SEARCH_SCOPES
    ]


def test_every_page_of_a_session_is_the_uncached_frame(system, workload):
    server = system.server
    user, query = _user_and_query(workload, server)
    sessions = _sessions(query)
    ranked_all = _frame(server, user, sessions[0][0])
    assert decode_message(ranked_all)["total"] > 30     # page 20 has rows

    def check():
        server.caches.clear()
        for session in sessions:
            for page in session:
                reference = _uncached(server, lambda: _frame(server, user, page))
                assert decode_message(reference)["status"] == "ok", page
                assert _frame(server, user, page) == reference, page
                assert _frame(server, user, page) == reference, page

    check()
    # Every stamp a search reads moves: a visit (visits), a crawl
    # (pages, covisits) and an index run (the indexer's watermark).
    visited = {v["url"] for v in server.repo.db.table("visits").scan()}
    fresh = next(u for u in sorted(workload.corpus.pages) if u not in visited)
    before = server.caches.search.stats()["invalidations"]
    for session in sessions:                  # entries the write makes stale
        for page in session:
            _frame(server, user, page)
    system.connect(user).record_visit(fresh, at=server.now + 3600.0)
    server.process_background_work()
    for session in sessions:
        for page in session:
            reference = _uncached(server, lambda: _frame(server, user, page))
            assert _frame(server, user, page) == reference, page
    assert server.caches.search.stats()["invalidations"] > before
    check()


def _spy(monkeypatch, server):
    calls = {"search": 0, "fuse": 0}
    search, fuse = server.search_engine.search, search_module.fuse_hybrid

    def counted_search(*args, **kwargs):
        calls["search"] += 1
        return search(*args, **kwargs)

    def counted_fuse(*args, **kwargs):
        calls["fuse"] += 1
        return fuse(*args, **kwargs)

    monkeypatch.setattr(server.search_engine, "search", counted_search)
    monkeypatch.setattr(search_module, "fuse_hybrid", counted_fuse)
    return calls


def test_a_session_ranks_once_and_the_uncached_server_per_page(
    system, workload, monkeypatch,
):
    server = system.server
    user, query = _user_and_query(workload, server)
    calls = _spy(monkeypatch, server)
    for session in _sessions(query):
        mode = session[0]["mode"]
        server.caches.clear()
        calls.update(search=0, fuse=0)
        _uncached(server, lambda: _frame(server, user, session[0]))
        one_page = dict(calls)
        if mode != "boolean":     # boolean ranks only when something matches
            assert one_page == {"search": 1, "fuse": int(mode == "hybrid")}

        calls.update(search=0, fuse=0)
        for page in session:
            _frame(server, user, page)
        assert calls == one_page, session[0]

        calls.update(search=0, fuse=0)
        for page in session:
            _uncached(server, lambda: _frame(server, user, page))
        assert calls == {k: len(session) * n for k, n in one_page.items()}, session[0]


@pytest.mark.parametrize("mode", ["ranked", "hybrid"])
def test_a_visit_between_pages_reaches_the_next_pages_total(system, workload, mode):
    """Page 0 of a ``scope=mine`` query is asked, then the user visits a
    page the community already archived and that matches: page 10 must
    count it, though the ranking page 0 left behind does not."""
    server = system.server
    user = workload.profiles[0].user_id
    mine = {v["url"] for v in server.repo.user_visits(user)}
    fresh, query = next(
        (url, word)
        for url in sorted({v["url"] for v in server.repo.community_visits()} - mine)
        for word in workload.corpus.pages[url].text.split()
        if url in {h.doc_id for h in server.search_engine.search(word, k=None)}
    )
    request = {"query": query, "mode": mode, "scope": "mine"}
    first = decode_message(_frame(server, user, {**request, "offset": 0}))
    system.connect(user).record_visit(fresh, at=server.now + 60.0)
    page = {**request, "offset": 10}
    reference = _uncached(server, lambda: _frame(server, user, page))
    second = _frame(server, user, page)
    assert second == reference
    assert decode_message(second)["total"] == first["total"] + 1
