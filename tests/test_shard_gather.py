"""ShardDispatcher routing and merge semantics over fake backends.

No sockets or processes here: each backend is an in-memory stub that
records what it was asked and answers from a handler, so these tests pin
the routing contract (owner / broadcast / scatter / batch decomposition)
and the deterministic merge rules independently of the cluster plumbing.
"""

import pytest

from repro.errors import CODE_UNAVAILABLE, ProtocolError
from repro.server.servlets import BATCH_SERVLET
from repro.shard.gather import ShardDispatcher
from repro.shard.ring import HashRing


class FakeBackend:
    def __init__(self, shard_id, handler=None, fail=False):
        self.shard_id = shard_id
        self.handler = handler
        self.fail = fail
        self.requests = []

    def request(self, user_id, payload):
        self.requests.append((user_id, dict(payload)))
        if self.fail:
            raise ProtocolError(
                f"shard {self.shard_id} is gone", code=CODE_UNAVAILABLE,
            )
        if self.handler is not None:
            return self.handler(self.shard_id, payload)
        return {"status": "ok", "shard": self.shard_id}


def make(n, handler=None, fail=(), **kwargs):
    backends = [
        FakeBackend(i, handler=handler, fail=(i in fail)) for i in range(n)
    ]
    return backends, ShardDispatcher(backends, **kwargs)


# -- owner-shard forwarding ---------------------------------------------------

def test_owner_requests_reach_exactly_the_ring_shard():
    backends, dispatcher = make(3)
    for user in ("alice", "bob", "carol", "dave"):
        owner = dispatcher.shard_for(user)
        out = dispatcher.dispatch({"servlet": "search", "user_id": user})
        assert out["shard"] == owner
    touched = [i for i, b in enumerate(backends) if b.requests]
    for i, backend in enumerate(backends):
        for user, _ in backend.requests:
            assert dispatcher.shard_for(user) == i
    assert touched  # sanity: something was routed


def test_unavailable_shard_fails_fast_without_a_backend_call():
    backends, dispatcher = make(2, available=lambda shard: shard != 1)
    user = next(
        u for u in (f"u{i}" for i in range(100))
        if dispatcher.shard_for(u) == 1
    )
    out = dispatcher.dispatch({"servlet": "search", "user_id": user})
    assert out["status"] == "error"
    assert out["error_code"] == CODE_UNAVAILABLE
    assert out["retryable"] is True
    assert backends[1].requests == []


# -- broadcast ----------------------------------------------------------------

def test_broadcast_hits_every_shard_owner_first():
    order = []

    def handler(shard, payload):
        order.append(shard)
        return {"status": "ok", "created": shard == 0}

    backends, dispatcher = make(3, handler=handler)
    out = dispatcher.dispatch({"servlet": "register_user", "user_id": "alice"})
    assert out["status"] == "ok"
    assert out["shards"] == 3
    assert out["created"] is True  # any shard creating counts
    assert sorted(order) == [0, 1, 2]
    assert order[0] == dispatcher.shard_for("alice")


def test_broadcast_is_all_or_retryable_error():
    backends, dispatcher = make(3, fail={2})
    out = dispatcher.dispatch({"servlet": "register_user", "user_id": "alice"})
    assert out["status"] == "error"
    assert out["error_code"] == CODE_UNAVAILABLE
    assert out["retryable"] is True


# -- scatter-gather -----------------------------------------------------------

def test_single_backend_scatter_is_the_identity():
    sentinel = {"status": "ok", "themes": [{"theme_id": "t1", "weight": 1.0}]}
    _, dispatcher = make(1, handler=lambda shard, payload: dict(sentinel))
    out = dispatcher.dispatch({"servlet": "themes_get", "user_id": "alice"})
    # No merge decoration on the one-shard path: the response is exactly
    # what the backend produced (in-process mode depends on this).
    assert out == sentinel


def test_theme_merge_namespaces_ids_and_sorts_by_weight():
    def handler(shard, payload):
        return {"status": "ok", "themes": [
            {"theme_id": "root", "weight": 1.0 + shard,
             "children": [{"theme_id": "leaf", "weight": 0.5, "children": []}]},
        ]}

    _, dispatcher = make(2, handler=handler)
    out = dispatcher.dispatch({"servlet": "themes_get", "user_id": "alice"})
    assert out["status"] == "ok" and out["shards"] == 2
    assert out["partial"] is False
    ids = [t["theme_id"] for t in out["themes"]]
    assert ids == ["s1/root", "s0/root"]  # heavier shard first
    assert out["themes"][0]["children"][0]["theme_id"] == "s1/leaf"


def test_ranked_merge_dedupes_by_id_keeping_the_best_score():
    def handler(shard, payload):
        rows = {
            0: [{"url": "http://a/", "score": 0.9},
                {"url": "http://b/", "score": 0.2}],
            1: [{"url": "http://a/", "score": 0.4},
                {"url": "http://c/", "score": 0.6}],
        }[shard]
        return {"status": "ok", "pages": rows}

    _, dispatcher = make(2, handler=handler)
    out = dispatcher.dispatch(
        {"servlet": "recommend", "user_id": "alice", "k": 10})
    urls = [(p["url"], p["score"]) for p in out["pages"]]
    assert urls == [("http://a/", 0.9), ("http://c/", 0.6), ("http://b/", 0.2)]


def test_stats_merge_sums_counters_and_keeps_per_shard_detail():
    def handler(shard, payload):
        return {"status": "ok", "pages": 10 * (shard + 1), "visits": 5,
                "links": 1, "indexed": 2, "crawl_backlog": 0}

    _, dispatcher = make(2, handler=handler)
    out = dispatcher.dispatch({"servlet": "stats", "user_id": "alice"})
    assert out["pages"] == 30 and out["visits"] == 10
    assert set(out["by_shard"]) == {"0", "1"}


def test_scatter_degrades_to_partial_when_a_shard_is_down():
    def handler(shard, payload):
        return {"status": "ok", "pages": [{"url": f"http://s{shard}/",
                                           "score": 1.0}]}

    backends, dispatcher = make(3, handler=handler, fail={1})
    out = dispatcher.dispatch(
        {"servlet": "popular_near_trail", "user_id": "alice"})
    assert out["status"] == "ok"
    assert out["partial"] is True
    assert out["shards_failed"] == [1]
    assert {p["url"] for p in out["pages"]} == {"http://s0/", "http://s2/"}


def test_a_page_in_one_shards_trail_stays_in_the_trail_when_merged():
    """Two shards rank the same page; the merge keeps the higher score and
    flags it ``in_trail`` when either shard's trail holds it."""
    def handler(shard, payload):
        return {"status": "ok", "pages": [
            {"url": "http://same/", "score": 2.0 - shard, "in_trail": shard == 1},
            {"url": f"http://s{shard}/", "score": 0.5, "in_trail": False}]}

    _, dispatcher = make(2, handler=handler)
    out = dispatcher.dispatch(
        {"servlet": "popular_near_trail", "user_id": "alice"})
    same = [p for p in out["pages"] if p["url"] == "http://same/"]
    assert same == [{"url": "http://same/", "score": 2.0, "in_trail": True}]


def test_scatter_with_every_shard_down_is_a_retryable_error():
    _, dispatcher = make(2, fail={0, 1})
    out = dispatcher.dispatch({"servlet": "themes_get", "user_id": "alice"})
    assert out["status"] == "error"
    assert out["error_code"] == CODE_UNAVAILABLE
    assert out["retryable"] is True


def test_health_merge_degrades_on_any_failed_shard():
    def handler(shard, payload):
        return {"status": "ok", "live": True, "health": "ready",
                "checks": {"wal": {"ok": True}}, "slos": {}}

    _, dispatcher = make(2, handler=handler, fail={1})
    out = dispatcher.dispatch({"servlet": "health", "user_id": "alice"})
    assert out["live"] is False
    assert out["health"] == "degraded"
    assert out["checks"]["s1.shard"]["ok"] is False
    assert out["checks"]["s0.wal"]["ok"] is True


# -- batch envelopes ----------------------------------------------------------

def _batch_handler(shard, payload):
    if payload.get("servlet") == BATCH_SERVLET:
        return {"status": "ok", "responses": [
            {"status": "ok", "via": "batch", "shard": shard}
            for _ in payload["requests"]
        ]}
    return {"status": "ok", "via": payload.get("servlet"), "shard": shard}


def test_pure_batches_ship_whole_to_the_owner_shard():
    backends, dispatcher = make(2, handler=_batch_handler)
    owner = dispatcher.shard_for("alice")
    out = dispatcher.dispatch({
        "servlet": BATCH_SERVLET, "user_id": "alice",
        "requests": [{"servlet": "visit"}, {"servlet": "visit"}],
    })
    assert [r["via"] for r in out["responses"]] == ["batch", "batch"]
    # One envelope, not two item dispatches.
    assert len(backends[owner].requests) == 1
    assert backends[owner].requests[0][1]["servlet"] == BATCH_SERVLET


def test_mixed_batches_decompose_in_order():
    backends, dispatcher = make(2, handler=_batch_handler)
    out = dispatcher.dispatch({
        "servlet": BATCH_SERVLET, "user_id": "alice",
        "requests": [
            {"servlet": "visit"}, {"servlet": "visit"},
            {"servlet": "stats"},
            {"servlet": "visit"},
        ],
    })
    vias = [r.get("via") for r in out["responses"]]
    assert len(out["responses"]) == 4
    assert vias[0] == vias[1] == "batch"     # leading run as one envelope
    assert out["responses"][2]["by_shard"]   # the scatter item was merged
    assert vias[3] == "batch"                # trailing run as its own envelope
    owner = dispatcher.shard_for("alice")
    owner_envelopes = [
        p for _, p in backends[owner].requests
        if p.get("servlet") == BATCH_SERVLET
    ]
    assert [len(e["requests"]) for e in owner_envelopes] == [2, 1]


# -- configuration ------------------------------------------------------------

def test_ring_and_backend_count_must_agree():
    backends = [FakeBackend(0), FakeBackend(1)]
    with pytest.raises(ValueError):
        ShardDispatcher(backends, ring=HashRing(3))
    with pytest.raises(ValueError):
        ShardDispatcher([])


# -- hybrid retrieval routing and canonical dedup -----------------------------

def _search_handler(hits_by_shard):
    """Shard answers a search/related_pages with canned ranked rows."""

    def handler(shard, payload):
        rows = list(hits_by_shard.get(shard, []))
        offset = int(payload.get("offset", 0))
        limit = int(payload.get("limit", payload.get("k", 10)))
        page = rows[offset:offset + limit]
        if payload.get("servlet") == "related_pages":
            return {"status": "ok", "related": rows, "total": len(rows)}
        return {
            "status": "ok",
            "hits": page,
            "total": len(rows),
            "offset": offset,
            "has_more": offset + len(page) < len(rows),
        }

    return handler


def test_cross_shard_duplicates_dedup_on_canonical_url():
    # The same underlying page comes back from two shards under
    # different spellings: a shard-namespaced id and a host-case /
    # trailing-slash variant.  The merge must keep ONE row (the
    # higher-scoring spelling), not both.
    hits = {
        0: [{"url": "http://A.com/x/", "score": 0.9}],
        1: [{"url": "s1/http://a.com/x", "score": 0.7},
            {"url": "http://b.com/y", "score": 0.5}],
    }
    _backends, dispatcher = make(2, handler=_search_handler(hits))
    out = dispatcher.dispatch({
        "servlet": "search", "user_id": "alice",
        "query": "q", "mode": "hybrid",
    })
    assert out["status"] == "ok"
    assert out["shards"] == 2
    urls = [h["url"] for h in out["hits"]]
    assert urls == ["http://A.com/x/", "http://b.com/y"]
    assert out["total"] == 2


def test_hybrid_search_scatters_with_full_window_rewrite():
    hits = {
        0: [{"url": f"http://s0.com/{i}", "score": 1.0 - i / 10} for i in range(4)],
        1: [{"url": f"http://s1.com/{i}", "score": 0.95 - i / 10} for i in range(4)],
    }
    backends, dispatcher = make(2, handler=_search_handler(hits))
    out = dispatcher.dispatch({
        "servlet": "search", "user_id": "alice",
        "query": "q", "mode": "hybrid", "limit": 3, "offset": 2,
    })
    # Every shard was asked for its FULL ranked list; the router
    # re-paginates after the canonical-dedup merge.
    for backend in backends:
        assert len(backend.requests) == 1
        _, payload = backend.requests[0]
        assert payload["offset"] == 0
        assert payload["limit"] == 1_000_000
    assert out["total"] == 8
    assert len(out["hits"]) == 3
    assert out["offset"] == 2
    assert out["has_more"] is True
    # Page window is over the merged order, not any single shard's.
    assert [h["url"] for h in out["hits"]] == [
        "http://s0.com/1", "http://s1.com/1", "http://s0.com/2",
    ]


def test_lexical_search_stays_owner_routed():
    backends, dispatcher = make(3, handler=_search_handler({}))
    owner = dispatcher.shard_for("alice")
    for mode in (None, "ranked", "boolean"):
        request = {"servlet": "search", "user_id": "alice", "query": "q"}
        if mode is not None:
            request["mode"] = mode
        out = dispatcher.dispatch(request)
        assert out["status"] == "ok"
        assert "shards" not in out   # single-shard answer, no merge stamp
    touched = {i for i, b in enumerate(backends) if b.requests}
    assert touched == {owner}


@pytest.mark.parametrize("bad", [{"limit": -1}, {"scope": "ours"}])
def test_hybrid_search_invalid_request_is_bad_request(bad):
    """Shards only see the rewritten request, so the router validates."""
    backends, dispatcher = make(2, handler=_search_handler({}))
    out = dispatcher.dispatch({
        "servlet": "search", "user_id": "alice",
        "query": "q", "mode": "hybrid", **bad,
    })
    assert out["status"] == "error"
    assert out["error_code"] == "bad_request"
    assert not any(b.requests for b in backends)


def test_related_pages_scatter_merges_neighborhoods():
    related = {
        0: [{"url": "http://a.com/x", "score": 0.8, "title": "x"}],
        1: [{"url": "http://a.com/x/", "score": 0.6, "title": "x"},
            {"url": "http://c.com/z", "score": 0.4, "title": "z"}],
    }
    _backends, dispatcher = make(2, handler=_search_handler(related))
    out = dispatcher.dispatch({
        "servlet": "related_pages", "user_id": "alice",
        "url": "http://seed.com/", "k": 10,
    })
    assert out["status"] == "ok"
    assert out["shards"] == 2
    assert [r["url"] for r in out["related"]] == [
        "http://a.com/x", "http://c.com/z",
    ]
    assert out["total"] == 2


def test_batch_envelope_decomposes_hybrid_search_items():
    def handler(shard, payload):
        if payload.get("servlet") == BATCH_SERVLET:
            return {"status": "ok", "responses": [
                {"status": "ok", "via": "batch"} for _ in payload["requests"]
            ]}
        return _search_handler({shard: [
            {"url": f"http://s{shard}.com/", "score": 1.0},
        ]})(shard, payload)

    _backends, dispatcher = make(2, handler=handler)
    out = dispatcher.dispatch({
        "servlet": BATCH_SERVLET, "user_id": "alice",
        "requests": [
            {"servlet": "visit"},
            {"servlet": "search", "query": "q", "mode": "hybrid"},
            {"servlet": "visit"},
        ],
    })
    assert len(out["responses"]) == 3
    assert out["responses"][0]["via"] == "batch"
    assert out["responses"][1]["shards"] == 2      # scattered, merged
    assert out["responses"][1]["total"] == 2
    assert out["responses"][2]["via"] == "batch"
