"""Hybrid retrieval through the server: fusion, pagination, caching.

``total``/``has_more`` must be computed AFTER the canonical-URL dedup
that fusion applies — plus the pagination edge cases (offset==total,
offset>total, limit=0, negative windows) in hybrid mode, rejection of
unknown ``mode``/``scope`` values, and related-cache invalidation when
new trail evidence lands.  On a replayed community: ranked and boolean
search never touch the retrieval plane, and hybrid search retrieves
more of a topic than lexical search does.
"""

import json

import pytest

import repro.core.search
from repro.core import MemexSystem
from repro.core.memex import MemexServer
from repro.server.daemons import FetchedPage
from repro.webgen import build_workload

PAGES = {
    "http://a.com/jazz": "jazz trumpet improvisation swing bebop",
    "http://a.com/blues": "blues guitar delta chicago twelve bar",
    "http://b.com/sax": "saxophone jazz smooth reed brass",
    "http://b.com/piano": "piano keys jazz ragtime stride",
    # The same underlying page under two spellings that canonicalize
    # identically (host case + trailing slash).
    "http://dup.com/live": "jazz concert live recording stage",
    "http://DUP.com/live/": "jazz concert live recording stage",
}


def fetcher(url):
    text = PAGES.get(url)
    if text is None:
        return None
    return FetchedPage(url, url.rsplit("/", 1)[-1] or "live", text, ())


@pytest.fixture
def server():
    srv = MemexServer(fetcher)
    req = lambda u, p: srv.transport.request(u, p)  # noqa: E731
    req("u1", {"servlet": "register_user"})
    req("u1", {"servlet": "set_archive_mode", "mode": "community"})
    t = 1000.0
    trails = [
        ["http://a.com/jazz", "http://b.com/sax", "http://b.com/piano"],
        ["http://a.com/jazz", "http://a.com/blues"],
        ["http://dup.com/live", "http://DUP.com/live/"],
    ]
    for session, urls in enumerate(trails, start=1):
        for url in urls:
            t += 10
            req("u1", {"servlet": "visit", "url": url,
                       "session_id": session, "at": t})
    srv.tick(8)
    yield srv, req
    srv.close()


def _search(req, **kwargs):
    return req("u1", {"servlet": "search", "query": "jazz",
                      "mode": "hybrid", **kwargs})


# -- post-dedup totals (the satellite-3 bugfix) -------------------------------

def test_hybrid_total_counts_after_canonical_dedup(server):
    srv, req = server
    lexical = req("u1", {"servlet": "search", "query": "jazz",
                         "mode": "ranked", "limit": 20})
    hybrid = _search(req, limit=20)
    lex_urls = [h["url"] for h in lexical["hits"]]
    # The corpus holds the same page under two spellings; lexical search
    # honestly reports both rows...
    assert "http://dup.com/live" in lex_urls
    assert "http://DUP.com/live/" in lex_urls
    # ...while fusion folds them into one, and total agrees with the
    # deduped list — NOT the pre-dedup candidate count.
    from repro.retrieval.fusion import canonical_url

    hybrid_urls = [h["url"] for h in hybrid["hits"]]
    assert len([u for u in hybrid_urls if "live" in u.lower()]) == 1
    assert len({canonical_url(u) for u in hybrid_urls}) == len(hybrid_urls)
    assert hybrid["total"] == len(hybrid_urls)

    # The sharper probe: "concert" matches ONLY the two dup spellings
    # lexically, so a pre-dedup total would report the lexical hit count
    # (2) while the fused list dedups one spelling and folds in the
    # dense/covisit legs — the counts genuinely diverge here.
    probe = req("u1", {"servlet": "search", "query": "concert",
                       "mode": "hybrid", "limit": 50})
    probe_urls = [h["url"] for h in probe["hits"]]
    assert len([u for u in probe_urls if "live" in u.lower()]) == 1
    assert len({canonical_url(u) for u in probe_urls}) == len(probe_urls)
    assert probe["total"] == len(probe_urls)
    assert probe["has_more"] is False


def test_hybrid_pagination_windows_are_consistent(server):
    srv, req = server
    full = _search(req, limit=100)
    total = full["total"]
    assert total >= 4
    # Walk the pages; concatenation must equal the full list exactly.
    walked = []
    offset = 0
    while True:
        page = _search(req, limit=2, offset=offset)
        assert page["total"] == total
        walked.extend(h["url"] for h in page["hits"])
        if not page["has_more"]:
            break
        offset += 2
    assert walked == [h["url"] for h in full["hits"]]


def test_hybrid_offset_at_total_is_empty_not_error(server):
    srv, req = server
    total = _search(req, limit=100)["total"]
    out = _search(req, limit=5, offset=total)
    assert out["hits"] == []
    assert out["total"] == total
    assert out["has_more"] is False


def test_hybrid_offset_past_total_is_empty(server):
    srv, req = server
    total = _search(req, limit=100)["total"]
    out = _search(req, limit=5, offset=total + 50)
    assert out["hits"] == []
    assert out["total"] == total
    assert out["has_more"] is False


def test_hybrid_limit_zero_is_a_count_probe(server):
    srv, req = server
    total = _search(req, limit=100)["total"]
    out = _search(req, limit=0)
    assert out["hits"] == []
    assert out["total"] == total
    assert out["has_more"] is (total > 0)


def test_hybrid_negative_window_is_bad_request(server):
    srv, req = server
    for kwargs in ({"limit": -1}, {"offset": -1}):
        out = _search(req, **kwargs)
        assert out["status"] == "error"
        assert out["error_code"] == "bad_request"


# -- mode contract ------------------------------------------------------------

def test_unknown_mode_or_scope_is_bad_request(server):
    """An unknown spelling (the removed ``lexical`` alias included) is
    refused before the cache key — it used to rank as BM25 / search
    everything under an entry of its own."""
    srv, req = server
    before = srv.caches.search.stats()
    for kwargs in ({"mode": "lexical"}, {"mode": "fuzzy"}, {"scope": "ours"}):
        out = req("u1", {"servlet": "search", "query": "jazz", **kwargs})
        assert out["status"] == "error", kwargs
        assert out["error_code"] == "bad_request"
    assert srv.caches.search.stats() == before


def test_hybrid_surfaces_trail_companions_lexical_misses(server):
    srv, req = server
    lexical = req("u1", {"servlet": "search", "query": "jazz",
                         "mode": "ranked", "limit": 20})
    hybrid = _search(req, limit=20)
    lex_urls = {h["url"] for h in lexical["hits"]}
    hybrid_urls = {h["url"] for h in hybrid["hits"]}
    # "blues" never mentions jazz, but the trail does.
    assert "http://a.com/blues" not in lex_urls
    assert "http://a.com/blues" in hybrid_urls


# -- related_pages ------------------------------------------------------------

def test_related_pages_returns_trail_neighbors(server):
    srv, req = server
    out = req("u1", {"servlet": "related_pages",
                     "url": "http://a.com/jazz", "k": 5})
    urls = [r["url"] for r in out["related"]]
    assert "http://a.com/blues" in urls
    assert "http://b.com/sax" in urls
    assert "http://a.com/jazz" not in urls   # never itself
    assert out["total"] == len(set(urls)) == len(urls)
    assert all("title" in r and "score" in r for r in out["related"])


def test_related_pages_k_window(server):
    srv, req = server
    full = req("u1", {"servlet": "related_pages",
                      "url": "http://a.com/jazz", "k": 50})
    one = req("u1", {"servlet": "related_pages",
                     "url": "http://a.com/jazz", "k": 1})
    assert len(one["related"]) == 1
    assert one["related"][0] == full["related"][0]
    assert one["total"] == full["total"]   # total unaffected by k
    bad = req("u1", {"servlet": "related_pages",
                     "url": "http://a.com/jazz", "k": -1})
    assert bad["status"] == "error"
    assert bad["error_code"] == "bad_request"


def test_related_cache_invalidates_when_new_trail_evidence_lands(server):
    srv, req = server
    ask = lambda: req("u1", {"servlet": "related_pages",  # noqa: E731
                             "url": "http://a.com/jazz", "k": 5})
    ask()
    before = srv.caches.related.stats()
    ask()
    after_hit = srv.caches.related.stats()
    assert after_hit["hits"] == before["hits"] + 1

    # A new community session through the seed page re-mines the matrix,
    # bumps the covisits stamp, and the cached entry must drop.
    req("u1", {"servlet": "visit", "url": "http://a.com/jazz",
               "session_id": 9, "at": 9000.0})
    req("u1", {"servlet": "visit", "url": "http://b.com/piano",
               "session_id": 9, "at": 9010.0})
    srv.tick(4)
    ask()
    final = srv.caches.related.stats()
    assert final["invalidations"] == after_hit["invalidations"] + 1
    assert final["hits"] == after_hit["hits"]   # recompute, not a stale hit


def test_hybrid_search_cache_hits_until_covisits_move(server):
    srv, req = server
    _search(req)
    hits0 = srv.caches.search.stats()["hits"]
    _search(req)
    assert srv.caches.search.stats()["hits"] == hits0 + 1
    # New trail evidence changes the fused ranking's inputs: the cached
    # hybrid entry must not be served stale.
    req("u1", {"servlet": "visit", "url": "http://a.com/blues",
               "session_id": 11, "at": 9100.0})
    req("u1", {"servlet": "visit", "url": "http://b.com/sax",
               "session_id": 11, "at": 9110.0})
    srv.tick(4)
    _search(req)
    assert srv.caches.search.stats()["hits"] == hits0 + 1   # miss, recomputed


# -- a replayed community -----------------------------------------------------

K = 10


@pytest.fixture(scope="module")
def community():
    """One replayed, quiesced community, and one topical query per leaf
    topic with at least three archived pages: the leaf's two *tail* seed
    terms (a surfer recalling a couple of a topic's rarer words — plenty
    of on-topic pages never mention them, which is the headroom the
    dense and trail legs exist to recover), with the topic's archived
    pages as the relevant set."""
    workload = build_workload(
        seed=1711, num_users=4, days=10, pages_per_leaf=8,
        bookmark_prob=0.25,
    )
    system = MemexSystem.from_workload(workload)
    system.replay(workload.events)
    archived = {
        row["url"] for row in system.server.repo.db.table("pages").scan()
    }
    queries = []
    for leaf in workload.root.leaves():
        relevant = {
            page.url for page in workload.corpus.by_topic(leaf.name)
            if page.url in archived
        }
        if len(relevant) >= 3:
            queries.append((" ".join(leaf.seed_terms[-2:]), relevant))
    yield system, workload.profiles[0].user_id, queries
    system.close()


def test_ranked_and_boolean_never_touch_retrieval(community, monkeypatch):
    """Ranked and boolean responses, over every scope and window, are
    byte-identical with the dense index and the co-visitation reader
    made to raise: only hybrid search reads the retrieval plane."""
    system, user, queries = community
    server = system.server
    requests = []
    for text, _ in queries[:8]:
        first, second = text.split()
        for mode, query in (("ranked", text), ("boolean", text),
                            ("boolean", f"{first} OR {second}"),
                            ("boolean", f"{first} AND NOT {second}")):
            for scope in ("all", "mine", "community"):
                for limit, offset in ((10, 0), (3, 2), (0, 0), (1000, 5)):
                    requests.append({
                        "servlet": "search", "query": query, "mode": mode,
                        "scope": scope, "limit": limit, "offset": offset,
                    })

    def answers():
        server.caches.clear()
        return [
            json.dumps(server.transport.request(user, dict(r)),
                       sort_keys=True)
            for r in requests
        ]

    before = answers()

    def boom(*args, **kwargs):
        raise AssertionError("the retrieval plane was read")

    monkeypatch.setattr(server.dense_index, "query", boom)
    monkeypatch.setattr(server.dense_index, "vector", boom)
    monkeypatch.setattr(server.dense_index.projector, "project", boom)
    monkeypatch.setattr(repro.core.search, "related_scores", boom)
    assert answers() == before
    assert all('"status": "ok"' in answer for answer in before)
    # The patches bite: a hybrid search now fails.
    server.caches.clear()
    hybrid = server.transport.request(user, {
        "servlet": "search", "query": queries[0][0], "mode": "hybrid"})
    assert hybrid["status"] == "error"


def _quality(system, user, queries, mode):
    """Mean precision@K and recall@K of community-scope search.
    Precision divides by K, not by the rows returned: a mode that fills
    four of ten slots did not reach precision 1.0."""
    precision = recall = 0.0
    for query, relevant in queries:
        response = system.server.transport.request(user, {
            "servlet": "search", "query": query, "mode": mode,
            "scope": "community", "limit": K,
        })
        assert response["status"] == "ok", response
        found = len({h["url"] for h in response["hits"]} & relevant)
        precision += found / K
        recall += found / min(K, len(relevant))
    return precision / len(queries), recall / len(queries)


def test_hybrid_recall_above_lexical_precision_no_worse(community):
    """Fusing the dense and trail legs into lexical ranking retrieves
    more of each topic's archived pages in the top ten (32 queries:
    recall@10 0.493 -> 0.563, precision@10 0.394 -> 0.450) without
    giving up precision."""
    system, user, queries = community
    assert len(queries) >= 4, "workload too small to score retrieval"
    lex_precision, lex_recall = _quality(system, user, queries, "ranked")
    hyb_precision, hyb_recall = _quality(system, user, queries, "hybrid")
    assert hyb_recall > lex_recall, (lex_recall, hyb_recall)
    assert hyb_precision >= lex_precision, (lex_precision, hyb_precision)


def test_queries_leave_the_vocabulary_and_the_basis_as_they_were(community):
    """Hybrid ``search``, ``resources`` and ``interest_mates`` only read
    the mining vocabulary: words no page contains are neither interned
    nor given a dense basis row, however many a client sends."""
    system, user, queries = community
    server = system.server
    assert server.themes.taxonomy is not None
    vocab, basis = server.vectorizer.vocab, server.dense_index.projector._basis
    before = (len(vocab), len(basis))
    for i in range(20):
        words = f"{queries[i % len(queries)][0]} zqxv{i} vwyk{i}"
        for payload in ({"servlet": "search", "query": words, "mode": "hybrid"},
                        {"servlet": "resources", "query": words},
                        {"servlet": "interest_mates", "query": words}):
            assert server.transport.request(user, payload)["status"] == "ok"
    assert (len(vocab), len(basis)) == before
