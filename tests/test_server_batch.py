"""Batch ingest pipeline tests: client buffering, batch dispatch, and
storage group commit.

Covers the v2 wire envelope end to end — applet event buffer → one framed
``batch`` message → ``ServletRegistry.dispatch_batch`` → WAL group commit
— plus per-item failure isolation and the typed-error contract.
"""

import pytest

from repro.core import MemexSystem
from repro.core.archive import folder_id
from repro.core.memex import MemexServer
from repro.errors import AuthError, MemexError, ServletError
from repro.server.daemons import FetchedPage
from repro.server.servlets import ServletRegistry
from repro.server.transport import HttpTunnelTransport
from repro.storage import KVStore
from repro.storage.repository import MemexRepository
from repro.storage.wal import WriteAheadLog, encode_record


def _tiny_system(**server_kwargs):
    pages = {
        f"http://p{i}/": FetchedPage(f"http://p{i}/", f"P{i}", f"text {i}", ())
        for i in range(40)
    }
    return MemexSystem(MemexServer(lambda u: pages.get(u), **server_kwargs))


# -- WAL group commit ---------------------------------------------------------

def test_wal_append_many_offsets_and_replay(tmp_path):
    with WriteAheadLog(tmp_path / "a.wal") as log:
        payloads = [f"rec-{i}".encode() for i in range(10)]
        offsets = log.append_many(payloads)
        assert offsets[0] == 0
        assert offsets == sorted(offsets)
        assert list(log.replay()) == payloads
        # Offsets point at real record boundaries.
        assert offsets[1] == len(encode_record(payloads[0]))


def test_wal_append_many_one_fsync(tmp_path):
    from repro.obs import MetricsRegistry

    m = MetricsRegistry()
    with WriteAheadLog(tmp_path / "a.wal", sync=True, metrics=m) as log:
        log.append_many([b"x"] * 50)
        assert m.counter_value("storage.wal.fsyncs", log="a.wal") == 1
        assert len(list(log.replay())) == 50
        log.append(b"y")
        assert m.counter_value("storage.wal.fsyncs", log="a.wal") == 2


def test_wal_append_many_empty(tmp_path):
    with WriteAheadLog(tmp_path / "a.wal") as log:
        assert log.append_many([]) == []
        assert list(log.replay()) == []


def test_wal_append_many_torn_tail_keeps_batch_prefix(tmp_path):
    path = tmp_path / "a.wal"
    with WriteAheadLog(path) as log:
        log.append_many([b"alpha", b"beta", b"gamma"])
    # Tear the last record: drop its final 2 bytes.
    raw = path.read_bytes()
    path.write_bytes(raw[:-2])
    with WriteAheadLog(path) as log:
        assert list(log.replay()) == [b"alpha", b"beta"]


# -- KV batch put -------------------------------------------------------------

def test_kvstore_put_many_groups_log_appends(tmp_path):
    from repro.obs import MetricsRegistry

    m = MetricsRegistry()
    store = KVStore(tmp_path / "kv.wal", sync=True, metrics=m)
    n = store.put_many((f"k{i:02d}".encode(), f"v{i}".encode()) for i in range(20))
    assert n == 20
    assert m.counter_value("storage.wal.fsyncs", log="kv.wal") == 1
    assert store.get(b"k07") == b"v7"
    assert store.keys() == sorted(store.keys())
    store.close()
    # Recovery replays the group-committed records.
    store2 = KVStore(tmp_path / "kv.wal")
    assert store2.get(b"k19") == b"v19"
    assert len(store2) == 20
    store2.close()


def test_kvstore_put_many_duplicate_keys_last_wins():
    store = KVStore()
    store.put_many([(b"k", b"first"), (b"k", b"second")])
    assert store.get(b"k") == b"second"
    assert len(store) == 1


def test_kvstore_put_many_type_checked():
    store = KVStore()
    with pytest.raises(TypeError):
        store.put_many([(b"ok", b"ok"), ("nope", b"x")])


def test_namespace_put_many():
    store = KVStore()
    from repro.storage import Namespace

    ns = Namespace(store, "terms")
    ns.put_many([(b"a", b"1"), (b"b", b"2")])
    assert ns.get(b"a") == b"1"
    assert dict(ns.items()) == {b"a": b"1", b"b": b"2"}


# -- repository batch path ----------------------------------------------------

def test_visit_batches_take_consecutive_ids():
    repo = MemexRepository()

    def batch(n):
        return repo.record_visit_batch([dict(
            user_id="u", url=f"http://p{i}/", at=float(i), session_id=1,
            referrer=None, archive_mode="community") for i in range(n)])

    [first] = batch(1)
    ids = batch(5)
    assert ids == list(range(first + 1, first + 6))
    assert batch(1) == [first + 6]
    assert batch(0) == []


def test_record_visit_batch_matches_sequential_semantics():
    repo_a = MemexRepository()
    repo_b = MemexRepository()
    for repo in (repo_a, repo_b):
        repo.add_user("u", now=0.0)
    visits = [
        ("http://x/", 10.0), ("http://y/", 11.0), ("http://x/", 12.0),
    ]
    ids_a = []
    for url, at in visits:
        repo_a.upsert_page(url, now=at)
        ids_a.append(repo_a.record_visit_batch([dict(
            user_id="u", url=url, at=at, session_id=1, referrer=None,
            archive_mode="community")])[0])
    ids_b = repo_b.record_visit_batch([
        {
            "user_id": "u", "url": url, "at": at, "session_id": 1,
            "referrer": None, "archive_mode": "community",
        }
        for url, at in visits
    ])
    assert ids_a == ids_b
    for repo in (repo_a, repo_b):
        page = repo.db.table("pages").get("http://x/")
        assert page["first_seen"] == 10.0
        assert page["last_seen"] == 12.0
    rows_a = repo_a.user_visits("u")
    rows_b = repo_b.user_visits("u")
    assert rows_a == rows_b


def test_record_visit_batch_single_commit(tmp_path):
    repo = MemexRepository(tmp_path, sync=True)
    repo.add_user("u", now=0.0)
    from repro.obs import MetricsRegistry  # noqa: F401 - parity with above

    before = repo.db._n_commits
    repo.record_visit_batch([
        {
            "user_id": "u", "url": f"http://b/{i}", "at": float(i),
            "session_id": 1, "referrer": None, "archive_mode": "community",
        }
        for i in range(16)
    ])
    assert repo.db._n_commits == before + 1
    assert len(repo.user_visits("u")) == 16
    repo.close()
    # Everything survives reopen (the WAL record was complete).
    repo2 = MemexRepository(tmp_path)
    assert len(repo2.user_visits("u")) == 16
    repo2.close()


def test_record_visit_batch_empty():
    repo = MemexRepository()
    assert repo.record_visit_batch([]) == []


# -- registry batch dispatch --------------------------------------------------

def test_dispatch_batch_mixed_good_and_bad_items():
    reg = ServletRegistry()
    reg.register("echo", lambda req: {"x": req["x"]})

    def broken(req):
        raise RuntimeError("kaboom")

    reg.register("broken", broken)
    out = reg.dispatch_batch([
        {"servlet": "echo", "x": 1},
        {"servlet": "nope"},
        {"servlet": "broken"},
        "not-a-dict",
        {"servlet": "echo"},          # missing x -> KeyError -> bad_request
        {"servlet": "echo", "x": 2},
    ])
    assert [r["status"] for r in out] == [
        "ok", "error", "error", "error", "error", "ok",
    ]
    assert out[1]["error_code"] == "unknown_servlet"
    assert out[2]["error_code"] == "internal"
    assert out[2]["retryable"] is True
    assert out[3]["error_code"] == "bad_request"
    assert out[4]["error_code"] == "bad_request"
    assert out[5]["x"] == 2
    # The registry keeps serving afterwards.
    assert reg.dispatch({"servlet": "echo", "x": 3})["status"] == "ok"
    assert reg.stats()["batches"] == 1


def test_registry_counters_over_a_mixed_stream():
    """``served`` and ``batches`` are derived from the per-servlet ok
    counts; every kind of request moves exactly the counter it should."""
    reg = ServletRegistry()
    reg.register("echo", lambda req: {"x": req.get("x")})

    def broken(req):
        raise RuntimeError("kaboom")

    reg.register("broken", broken)
    bad_parent = {"servlet": "echo", "traceparent": "not-a-traceparent"}
    for request in (
        {"servlet": "echo", "x": 1},                          # served 1
        {"servlet": "echo", "x": 2},                          # served 2
        bad_parent,                                           # failed 1
        {"servlet": "nope"},                                  # failed 2
        {"servlet": "broken"},                                # failed 3
        {"servlet": "batch", "requests": [                    # batches 1
            {"servlet": "echo"}, {"servlet": "echo"},         # served 4
            {"servlet": "nope"}, {"servlet": "broken"},
            bad_parent,                                       # failed 6
        ]},
        {"servlet": "batch", "requests": "not-a-list"},       # failed 7
    ):
        reg.dispatch(request)
    reg.dispatch_batch([{"servlet": "echo"}])                 # served 5, batches 2
    assert reg.stats() == {
        "served": 5, "failed": 7, "batches": 2,
        "by_servlet": {"echo": 5, "batch": 2},
    }
    assert reg.requests_failed == 7


def test_dispatch_batch_envelope_propagates_user():
    reg = ServletRegistry()
    reg.register("whoami", lambda req: {"you": req.get("user_id")})
    out = reg.dispatch({
        "servlet": "batch", "user_id": "alice",
        "requests": [{"servlet": "whoami"}, {"servlet": "whoami", "user_id": "mallory"}],
    })
    assert out["status"] == "ok"
    # The envelope's authenticated user overrides whatever an item claims.
    assert [r["you"] for r in out["responses"]] == ["alice", "alice"]


def test_dispatch_batch_envelope_requires_list():
    reg = ServletRegistry()
    out = reg.dispatch({"servlet": "batch", "requests": "nope"})
    assert out["status"] == "error"
    assert out["error_code"] == "bad_request"


def test_dispatch_batch_rejects_nested_envelopes():
    reg = ServletRegistry()
    out = reg.dispatch({
        "servlet": "batch",
        "requests": [{"servlet": "batch", "requests": []}],
    })
    assert out["responses"][0]["error_code"] == "bad_request"


def test_batch_servlet_name_reserved():
    reg = ServletRegistry()
    with pytest.raises(ServletError):
        reg.register("batch", lambda req: {})


def test_batch_handler_groups_consecutive_runs():
    reg = ServletRegistry()
    calls = []

    def single(req):
        calls.append(("single", req["i"]))
        return {"i": req["i"]}

    def many(reqs):
        calls.append(("many", [r["i"] for r in reqs]))
        return [{"i": r["i"]} for r in reqs]

    reg.register("ingest", single, batch_handler=many)
    reg.register("other", lambda req: {})
    out = reg.dispatch_batch([
        {"servlet": "ingest", "i": 0},
        {"servlet": "ingest", "i": 1},
        {"servlet": "other"},
        {"servlet": "ingest", "i": 2},
    ])
    assert [r["status"] for r in out] == ["ok"] * 4
    assert ("many", [0, 1]) in calls
    assert ("many", [2]) in calls
    assert not [c for c in calls if c[0] == "single"]


def test_batch_handler_failure_degrades_to_per_item():
    reg = ServletRegistry()

    def single(req):
        if req.get("bad"):
            raise ValueError("poisoned item")
        return {"i": req["i"]}

    def many(reqs):
        if any(r.get("bad") for r in reqs):
            raise RuntimeError("group commit aborted")
        return [{"i": r["i"]} for r in reqs]

    reg.register("ingest", single, batch_handler=many)
    out = reg.dispatch_batch([
        {"servlet": "ingest", "i": 0},
        {"servlet": "ingest", "i": 1, "bad": True},
        {"servlet": "ingest", "i": 2},
    ])
    # The poisoned item fails alone; its neighbours still succeed.
    assert [r["status"] for r in out] == ["ok", "error", "ok"]
    assert out[1]["error_code"] == "bad_request"
    assert out[0]["i"] == 0 and out[2]["i"] == 2


def test_batch_handler_wrong_shape_degrades_to_per_item():
    reg = ServletRegistry()
    reg.register(
        "ingest", lambda req: {"i": req["i"]},
        batch_handler=lambda reqs: [{}],  # always the wrong length
    )
    out = reg.dispatch_batch([
        {"servlet": "ingest", "i": 7}, {"servlet": "ingest", "i": 8},
    ])
    assert [r["i"] for r in out] == [7, 8]


def test_dispatch_does_not_mutate_shared_handler_dicts():
    reg = ServletRegistry()
    shared = {"cached": True}
    reg.register("cached", lambda req: shared)
    out1 = reg.dispatch({"servlet": "cached"})
    assert out1["status"] == "ok"
    # The handler's dict must not have been annotated in place.
    assert shared == {"cached": True}
    out2 = reg.dispatch_batch([{"servlet": "cached"}])[0]
    assert out2["status"] == "ok"
    assert shared == {"cached": True}


def test_dispatch_batch_amortizes_latency_observations():
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    reg = ServletRegistry(metrics=metrics)
    reg.register("echo", lambda req: {})
    reg.dispatch_batch([{"servlet": "echo"} for _ in range(10)])
    # One latency sample for the whole batch, none per item.
    assert metrics.histogram(
        "server.servlets.latency", servlet="batch").count == 1
    assert metrics.histogram(
        "server.servlets.latency", servlet="echo").count == 0


def test_a_bad_session_id_fails_only_its_batch_item():
    """``int()`` stored ``session_id=2.5`` as 2; now that item alone is a
    typed ``bad_request`` and its neighbours still commit."""
    with MemexServer(lambda url: None) as server:
        server.transport.request("u", {"servlet": "register_user"})
        out = server.transport.request_batch("u", [
            {"servlet": "visit", "url": f"http://p{i}/", "at": float(i),
             "session_id": session_id}
            for i, session_id in enumerate((3, 2.5, 4.0))
        ])
        assert [r["status"] for r in out] == ["ok", "error", "ok"]
        assert out[1]["error_code"] == "bad_request"
        visits = server.repo.user_visits("u")
        assert [(v["url"], v["session_id"]) for v in visits] == [
            ("http://p0/", 3), ("http://p2/", 4)]


# -- transport batch round trip ----------------------------------------------

def test_transport_request_batch_roundtrip():
    reg = ServletRegistry()
    reg.register("whoami", lambda req: {"you": req["user_id"]})
    transport = HttpTunnelTransport(reg)
    transport.set_key("bob", b"bobs-key")
    out = transport.request_batch("bob", [{"servlet": "whoami"}] * 3)
    assert [r["you"] for r in out] == ["bob"] * 3
    assert transport.request_batch("bob", []) == []


# -- envelope-failure replication must deep-copy ------------------------------
#
# Regression: replicating a failed batch envelope into per-item slots with
# shallow `dict(envelope)` copies shared any nested mutable values (e.g. an
# error `detail` dict) between every slot — annotating one response
# corrupted its siblings.

def test_replicate_envelope_failure_slots_are_independent():
    from repro.server.transport import replicate_envelope_failure

    envelope = {
        "status": "error",
        "error": "backend unavailable",
        "error_code": "internal",
        "retryable": True,
        "detail": {"attempts": [], "hint": "original"},
    }
    slots = replicate_envelope_failure(envelope, 3)
    assert slots == [envelope] * 3
    slots[0]["detail"]["hint"] = "mutated"
    slots[0]["detail"]["attempts"].append("retry-1")
    # Siblings and the source envelope are untouched.
    assert slots[1]["detail"] == {"attempts": [], "hint": "original"}
    assert slots[2]["detail"] == {"attempts": [], "hint": "original"}
    assert envelope["detail"] == {"attempts": [], "hint": "original"}


def test_request_batch_envelope_failure_responses_are_independent():
    class BrokenBackendRegistry(ServletRegistry):
        """Every dispatch fails at the envelope level with nested detail."""

        def dispatch(self, request):
            return {
                "status": "error",
                "error": "backend unavailable",
                "error_code": "internal",
                "retryable": True,
                "detail": {"attempts": []},
            }

    transport = HttpTunnelTransport(BrokenBackendRegistry())
    transport.set_key("bob", b"bobs-key")
    out = transport.request_batch(
        "bob", [{"servlet": "visit"}, {"servlet": "visit"}])
    assert len(out) == 2
    assert all(r["status"] == "error" for r in out)
    # A caller annotating slot 0 (e.g. a retry loop recording attempts)
    # must not see the annotation bleed into slot 1.
    out[0]["detail"]["attempts"].append("retry-1")
    assert out[1]["detail"]["attempts"] == []


# -- applet buffering ---------------------------------------------------------

def test_applet_buffers_and_flushes_on_size():
    system = _tiny_system()
    applet = system.register_user("u")
    applet.batch_size = 4
    for i in range(3):
        assert applet.record_visit(f"http://p{i}/", at=float(i)) is True
    assert len(applet._pending) == 3
    assert len(system.server.repo.user_visits("u")) == 0
    applet.record_visit("http://p3/", at=3.0)   # 4th event: auto-flush
    assert len(applet._pending) == 0
    assert len(system.server.repo.user_visits("u")) == 4
    assert applet.batched_events == 4


def test_applet_sync_call_flushes_buffer():
    system = _tiny_system()
    applet = system.register_user("u")
    applet.batch_size = 100
    applet.record_visit("http://p0/", at=1.0)
    applet.bookmark("http://p1/", "Stuff", at=2.0)
    assert len(applet._pending) == 2
    system.server.process_background_work()
    hits = applet.search("text")   # synchronous UI call: must see the visits
    assert len(applet._pending) == 0
    assert len(system.server.repo.user_visits("u")) == 1
    folder = folder_id("u", "Stuff")
    assert len(system.server.repo.folder_pages(folder)) == 1
    assert isinstance(hits, list)


def test_applet_explicit_flush_and_responses():
    system = _tiny_system()
    applet = system.register_user("u")
    applet.batch_size = 100
    applet.record_visit("http://p0/", at=1.0)
    applet.record_visit("http://p1/", at=2.0)
    responses = applet.flush()
    assert [r["archived"] for r in responses] == [True, True]
    assert [r["status"] for r in responses] == ["ok", "ok"]
    assert applet.flush() == []


def test_applet_batched_state_matches_unbatched():
    sys_a = _tiny_system()
    sys_b = _tiny_system()
    a = sys_a.register_user("u")
    b = sys_b.register_user("u")
    b.batch_size = 8
    for i in range(10):
        a.record_visit(f"http://p{i}/", at=float(i))
        b.record_visit(f"http://p{i}/", at=float(i))
        if i == 4:
            a.bookmark("http://p4/", "Five", at=4.5)
            b.bookmark("http://p4/", "Five", at=4.5)
    b.flush()
    va = sys_a.server.repo.user_visits("u")
    vb = sys_b.server.repo.user_visits("u")
    assert [(v["url"], v["at"], v["visit_id"]) for v in va] == \
           [(v["url"], v["at"], v["visit_id"]) for v in vb]
    assert sys_a.server.repo.db.table("pages").get("http://p4/")["last_seen"] == \
           sys_b.server.repo.db.table("pages").get("http://p4/")["last_seen"]


def test_applet_batch_auth_error_is_typed():
    system = _tiny_system()
    applet = system.connect("ghost")
    applet.batch_size = 8
    applet.record_visit("http://p0/", at=1.0)
    with pytest.raises(AuthError):
        applet.flush()


def test_applet_batch_partial_failure_raises_memex_error():
    system = _tiny_system()
    applet = system.register_user("u")
    applet.batch_size = 100
    applet.record_visit("http://p0/", at=1.0)
    applet._pending.append({"servlet": "visit"})   # malformed: no url
    applet.record_visit("http://p1/", at=2.0)
    with pytest.raises(MemexError) as exc_info:
        applet.flush()
    assert "1/3" in str(exc_info.value)
    # Good neighbours committed despite the bad item.
    assert len(system.server.repo.user_visits("u")) == 2


def test_batched_replay_matches_unbatched_replay():
    from repro.webgen import build_workload

    workload = build_workload(
        seed=77, num_users=3, days=5, pages_per_leaf=6,
        bookmark_prob=0.2, community_core=3, community_fringe=0,
    )
    sys_a = MemexSystem.from_workload(workload)
    counts_a = sys_a.replay(workload.events, batch_size=1)
    sys_b = MemexSystem.from_workload(workload)
    counts_b = sys_b.replay(workload.events, batch_size=32)
    assert counts_a == counts_b
    visits_a = sys_a.server.repo.db.table("visits").select(order_by="visit_id")
    visits_b = sys_b.server.repo.db.table("visits").select(order_by="visit_id")
    assert visits_a == visits_b
    pages_a = {r["url"]: r for r in sys_a.server.repo.db.table("pages").scan()}
    pages_b = {r["url"]: r for r in sys_b.server.repo.db.table("pages").scan()}
    assert pages_a == pages_b
    # Batching actually reduced wire frames.
    assert sys_b.server.transport.bytes_out < sys_a.server.transport.bytes_out


# -- paginated search ---------------------------------------------------------

@pytest.fixture(scope="module")
def search_system():
    system = _tiny_system()
    applet = system.register_user("u")
    for i in range(25):
        applet.record_visit(f"http://p{i}/", at=float(i))
    system.server.process_background_work()
    return system


def test_search_pagination_pages_through_results(search_system):
    applet = search_system.connect("u")
    page1 = applet.search_page("text", limit=10, offset=0)
    page2 = applet.search_page("text", limit=10, offset=10)
    page3 = applet.search_page("text", limit=10, offset=20)
    assert page1["total"] == page2["total"] == page3["total"] == 25
    assert len(page1["hits"]) == 10 and len(page2["hits"]) == 10
    assert len(page3["hits"]) == 5
    assert page1["has_more"] and page2["has_more"] and not page3["has_more"]
    urls = [h["url"] for p in (page1, page2, page3) for h in p["hits"]]
    assert len(set(urls)) == 25


def test_search_pagination_beyond_end(search_system):
    applet = search_system.connect("u")
    page = applet.search_page("text", limit=10, offset=100)
    assert page["hits"] == [] and page["has_more"] is False
    assert page["total"] == 25


def test_search_legacy_k_unchanged(search_system):
    applet = search_system.connect("u")
    hits = applet.search("text", k=7)
    assert len(hits) == 7
    # limit/offset on the classic method, backward-compatible defaults.
    assert [h["url"] for h in applet.search("text", limit=7)] == \
           [h["url"] for h in hits]
    assert applet.search("text", k=7, offset=7)[0]["url"] not in {
        h["url"] for h in hits
    }


def test_search_rejects_negative_pagination(search_system):
    applet = search_system.connect("u")
    with pytest.raises(MemexError):
        applet.search_page("text", limit=-1)


def test_search_pagination_offset_exactly_at_end(search_system):
    applet = search_system.connect("u")
    page = applet.search_page("text", limit=10, offset=25)
    assert page["hits"] == []
    assert page["has_more"] is False
    assert page["total"] == 25
    assert page["offset"] == 25


def test_search_pagination_zero_limit_probes_total(search_system):
    # limit=0 is a count probe: no hits shipped, but total is reported and
    # has_more is True whenever matches exist past the offset.
    applet = search_system.connect("u")
    probe = applet.search_page("text", limit=0, offset=0)
    assert probe["hits"] == []
    assert probe["total"] == 25
    assert probe["has_more"] is True
    # ... and False once the offset has consumed every match.
    done = applet.search_page("text", limit=0, offset=25)
    assert done["hits"] == []
    assert done["has_more"] is False
