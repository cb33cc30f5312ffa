"""Cluster observability plane: mergeable metrics (exact cluster
percentiles), log shipping and span-tree
reconstruction, the scatter-merged ``metrics_pull``/``stats`` sections,
supervisor health detail, and the ``repro top`` renderer.
"""

import json
import random

import pytest

from repro.core.memex import MemexServer
from repro.obs import (
    LogHub,
    LogShipper,
    MetricsRegistry,
    Tracer,
    build_span_tree,
    merge_histogram_raw,
    merge_snapshots,
    read_shipped_records,
    render_span_tree,
    shard_log_paths,
)
from repro.obs import shipping
from repro.obs.metrics import diff_snapshots, summarize_histogram_raw
from repro.obs.top import CLEAR, render_dashboard, run_top, split_name
from repro.server.daemons import FetchedPage
from repro.shard.merge import merge_metrics, merge_stats

QS = (0.5, 0.9, 0.95, 0.99)


# -- exact merged percentiles (the property the dashboard relies on) ----------

@pytest.mark.parametrize("seed", [1, 7, 42])
def test_merged_histogram_percentiles_are_exact(seed):
    """Bucket-wise merge of per-shard histograms gives the *same*
    percentiles as one histogram that observed the union — exactly, not
    approximately (identical bucket ladders make the merge lossless).
    ``sum`` may differ in the last float ulp (summation order only).
    """
    rng = random.Random(seed)
    shards = [MetricsRegistry() for _ in range(4)]
    union = MetricsRegistry()
    u = union.histogram("lat")
    for registry in shards:
        h = registry.histogram("lat")
        for _ in range(rng.randrange(5, 400)):
            v = rng.choice([rng.uniform(0, 1e-4), rng.uniform(0, 0.1),
                            rng.uniform(0, 2.0), 15.0])
            h.observe(v)
            u.observe(v)
    merged = None
    for registry in shards:
        merged = merge_histogram_raw(
            merged, registry.raw_snapshot()["histograms"]["lat"])
    expect = u.raw()
    assert merged["counts"] == expect["counts"]
    assert merged["count"] == expect["count"]
    assert merged["min"] == expect["min"]
    assert merged["max"] == expect["max"]
    assert merged["sum"] == pytest.approx(expect["sum"])
    got = summarize_histogram_raw(merged)
    want = summarize_histogram_raw(expect)
    for q in ("p50", "p95", "p99"):
        assert got[q] == want[q]


def test_merge_histogram_raw_rejects_mismatched_ladders():
    a = {"buckets": [1.0, 2.0], "counts": [1, 0, 0], "sum": 0.5, "count": 1}
    b = {"buckets": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1}
    with pytest.raises(ValueError):
        merge_histogram_raw(a, b)


def test_merge_snapshots_sums_and_tolerates_missing_instruments():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("reqs").inc(3)
    b.counter("reqs").inc(4)
    a.gauge_func("depth", lambda: 2)
    b.counter("only_b").inc(1)
    merged = merge_snapshots([a.raw_snapshot(), b.raw_snapshot()])
    assert merged["counters"]["reqs"] == 7
    assert merged["counters"]["only_b"] == 1
    assert merged["gauges"]["depth"] == 2


def test_diff_snapshots_clamps_counter_regressions():
    before, after = MetricsRegistry(), MetricsRegistry()
    before.counter("reqs").inc(10)
    after.counter("reqs").inc(4)  # a restart reset the counter
    delta = diff_snapshots(before.raw_snapshot(), after.raw_snapshot())
    assert delta["counters"]["reqs"] == 0


def test_server_metrics_pull_ships_the_raw_snapshot():
    server = MemexServer(lambda url: None)
    server.tick(8)
    response = server.registry.dispatch({"servlet": "metrics_pull"})
    assert response["status"] == "ok"
    assert sorted(response) == ["metrics", "status"]
    # Raw, mergeable histograms: bucket counts, not summaries.
    latency = response["metrics"]["histograms"][
        "server.scheduler.run_latency{daemon=crawler}"]
    assert latency["count"] == 8 and "buckets" in latency
    server.process_background_work()


# -- scatter merges -----------------------------------------------------------

def _shard_response(n):
    registry = MetricsRegistry()
    registry.counter("reqs").inc(n)
    h = registry.histogram("server.servlets.latency", servlet="visit")
    for i in range(n):
        h.observe(0.001 * (i + 1))
    return {
        "status": "ok",
        "metrics": registry.raw_snapshot(),
    }


def test_merge_metrics_pull_merges_and_keeps_by_shard():
    oks = [(0, _shard_response(3)), (1, _shard_response(5))]
    merged = merge_metrics({}, oks, [], 0)
    assert merged["metrics"]["counters"]["reqs"] == 8
    lat = merged["metrics"]["histograms"][
        "server.servlets.latency{servlet=visit}"]
    assert lat["count"] == 8
    assert set(merged["by_shard"]) == {"0", "1"}
    assert merged["by_shard"]["1"]["metrics"]["counters"]["reqs"] == 5


def _stats_response(pages, hits, misses):
    registry = MetricsRegistry()
    h = registry.histogram("lat")
    for i in range(4):
        h.observe(0.002 * (i + 1))
    return {
        "status": "ok",
        "pages": pages, "visits": 0, "links": 0, "indexed": 0,
        "crawl_backlog": 0,
        "servlets": {"visit": {"served": pages}},
        "cache": {"search": {"hits": hits, "misses": misses,
                             "entries": 1, "evictions": 0,
                             "invalidations": 0,
                             "hit_rate": hits / max(1, hits + misses)}},
        "storage": {"engine": "btree", "puts": pages},
        "versioning_lag": {"indexer": pages % 3},
        "latency": {"visit": {"count": 4}},
        "latency_raw": {"visit": registry.raw_snapshot()["histograms"]["lat"]},
    }


def test_merge_stats_keeps_cache_storage_and_exact_latency():
    """The PR 9 fix: ``stats`` merges used to keep only the catalog
    counters; cache/storage/servlet sections vanished and latency was
    dropped.  Now numeric sections sum, hit rates are recomputed from
    the summed hits/misses, and latency merges bucket-wise."""
    oks = [(0, _stats_response(10, 8, 2)), (1, _stats_response(20, 2, 8))]
    merged = merge_stats({}, oks, [], 0)
    assert merged["pages"] == 30
    assert set(merged["by_shard"]) == {"0", "1"}
    assert merged["servlets"]["visit"]["served"] == 30
    cache = merged["cache"]["search"]
    assert cache["hits"] == 10 and cache["misses"] == 10
    assert cache["hit_rate"] == pytest.approx(0.5)  # recomputed, not summed
    assert merged["storage"]["puts"] == 30
    assert merged["storage"]["engine"] == "btree"
    assert merged["versioning_lag"]["indexer"] == 2  # max across shards
    assert merged["latency"]["visit"]["count"] == 8  # bucket-wise merge


# -- log shipping -------------------------------------------------------------

def test_log_shipper_ships_logs_and_spans(tmp_path):
    hub = LogHub()
    tracer = Tracer(sample_every=1)
    shipper = LogShipper(tmp_path / "s0" / "logs" / "w.jsonl", shard="0")
    hub.attach(shipper.log_sink)
    tracer.attach(shipper.span_sink)
    hub.logger("router").info("routed", servlet="visit")
    with tracer.span("servlet.visit"):
        pass
    shipper.close()
    records = read_shipped_records(tmp_path)
    assert [r["kind"] for r in records] == ["log", "span"]
    assert all(r["shard"] == "0" for r in records)
    assert all("wall_ts" in r for r in records)


def test_log_shipper_rotates_and_reader_merges_rotation(tmp_path, monkeypatch):
    monkeypatch.setattr(shipping, "MAX_BYTES", 512)
    shipper = LogShipper(tmp_path / "s0" / "logs" / "w.jsonl", shard="0")
    for i in range(50):
        shipper.log_sink({"ts": float(i), "event": "e", "n": i})
    shipper.close()
    paths = shard_log_paths(tmp_path)
    assert [p.name for p in paths] == ["w.jsonl.1", "w.jsonl"]
    records = read_shipped_records(tmp_path)
    # Bounded shipping: rotation keeps the newest ~2*MAX_BYTES — the
    # retained records are a contiguous, ordered tail ending at the
    # latest write (older rotations are dropped on purpose).
    ns = [r["n"] for r in records]
    assert ns == list(range(ns[0], 50))
    assert 0 < len(ns) < 50


def test_reader_skips_torn_tail_line(tmp_path):
    path = tmp_path / "s0" / "logs" / "w.jsonl"
    shipper = LogShipper(path, shard="0")
    shipper.log_sink({"ts": 1.0, "event": "whole"})
    shipper.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"ts": 2.0, "event": "torn...')  # crash mid-append
    records = read_shipped_records(tmp_path)
    assert [r["event"] for r in records] == ["whole"]


def test_build_span_tree_reassembles_and_orphans_become_roots():
    t = "ab" * 16
    recs = [
        {"kind": "span", "trace_id": t, "span_id": "a" * 16,
         "parent_id": None, "name": "router.dispatch", "shard": "router",
         "start": 0.0, "duration": 0.01, "wall_ts": 1.0, "error": None},
        {"kind": "span", "trace_id": t, "span_id": "b" * 16,
         "parent_id": "a" * 16, "name": "router.forward", "shard": "router",
         "start": 0.001, "duration": 0.005, "wall_ts": 1.1, "error": None},
        {"kind": "span", "trace_id": t, "span_id": "c" * 16,
         "parent_id": "b" * 16, "name": "servlet.visit", "shard": "1",
         "start": 0.002, "duration": 0.002, "wall_ts": 1.2, "error": "boom"},
        # Parent never shipped (sampling, crash): still renders as root.
        {"kind": "span", "trace_id": t, "span_id": "d" * 16,
         "parent_id": "f" * 16, "name": "daemon.indexer", "shard": "1",
         "start": 0.5, "duration": 0.1, "wall_ts": 2.0, "error": None},
    ]
    roots = build_span_tree(recs, t)
    assert [r["span"]["name"] for r in roots] == [
        "router.dispatch", "daemon.indexer"]
    text = render_span_tree(roots)
    assert "router.dispatch" in text
    assert "  router.forward" in text       # indented child
    assert "    servlet.visit" in text      # grandchild, deeper indent
    assert "ERROR" in text                  # failed span flagged
    assert "[shard 1]" in text


# -- repro top ----------------------------------------------------------------

def _fake_pull(reqs=100.0):
    registry = MetricsRegistry()
    registry.counter("server.servlets.requests", servlet="visit").inc(reqs)
    h = registry.histogram("server.servlets.latency", servlet="visit")
    for i in range(10):
        h.observe(0.001 * (i + 1))
    registry.counter("cache.hits", cache="search").inc(9)
    registry.counter("cache.misses", cache="search").inc(1)
    return {
        "status": "ok",
        "metrics": registry.raw_snapshot(),
        "by_shard": {"0": {}, "1": {}},
    }


def _fake_health():
    return {
        "health": "ready",
        "checks": {"s0.storage": {"ok": True, "detail": ""}},
        "slos": {"s0.visit": {"status": "ok", "burn_short": 0.0,
                              "burn_long": 0.0, "errors": 0}},
        "supervisor": {
            "0": {"status": "up", "restarts": 0, "backoff": 0.0,
                  "backoff_remaining": 0.0, "last_exit": None},
            "1": {"status": "down", "restarts": 3, "backoff": 0.4,
                  "backoff_remaining": 0.2,
                  "last_exit": "killed by SIGKILL"},
        },
    }


def test_split_name_round_trips_labels():
    assert split_name("a.b{x=1,y=2}") == ("a.b", {"x": "1", "y": "2"})
    assert split_name("plain") == ("plain", {})


def test_render_dashboard_sections():
    frame = render_dashboard(
        _fake_pull(150.0), _fake_pull(100.0), seconds=5.0,
        health=_fake_health())
    assert "shards 2" in frame
    assert "status ready" in frame
    assert "visit" in frame
    assert "10.0" in frame          # 50 requests over 5 s
    assert "restarts 3" in frame
    assert "killed by SIGKILL" in frame
    assert "backoff" in frame
    assert "0.90" in frame          # cache hit rate
    assert "SLOs ok" in frame
    assert "p50" in frame and "p99" in frame


def test_render_dashboard_first_frame_has_no_rates():
    frame = render_dashboard(_fake_pull(), None, seconds=0.0)
    assert "req/s -" in frame


def test_run_top_loop_renders_frames(capsys):
    payloads = {"metrics_pull": _fake_pull(), "health": _fake_health()}

    def request(payload):
        return payloads[payload["servlet"]]

    rc = run_top(request, interval=0.0, iterations=2,
                 sleep=lambda _s: None, clear=True)
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count(CLEAR) == 2
    assert out.count("memex top") == 2


# -- supervisor health detail (live cluster) ---------------------------------

PAGES = {
    "http://a/": ("A", "alpha beta gamma delta"),
    "http://b/": ("B", "beta gamma delta epsilon"),
}


def _fetch(url):
    got = PAGES.get(url)
    return None if got is None else FetchedPage(url, got[0], got[1])


def _factory(shard_id, root):
    return MemexServer(_fetch, root=root)


def test_cluster_health_and_dashboard_against_live_shards(tmp_path):
    from repro.shard import MemexCluster

    cluster = MemexCluster(
        _factory, 2, data_dir=str(tmp_path),
        tick_interval=None, monitor=False,
    )
    try:
        cluster.register_user("user00")
        detail = cluster.supervisor.health_detail()
        assert set(detail) == {0, 1}
        for row in detail.values():
            assert row["status"] == "up"
            assert row["restarts"] == 0
            assert row["last_exit"] is None
            assert row["uptime"] >= 0.0

        report = cluster.health_report()
        assert report["checks"]["supervisor"]["ok"] is True
        assert "2/2 shards up" in report["checks"]["supervisor"]["detail"]

        # The merged health servlet carries the supervisor section too.
        health = cluster.request("user00", {"servlet": "health"})
        assert set(health["supervisor"]) == {"0", "1"}

        # And `repro top` renders a frame from the live pull path.
        pull = cluster.metrics_pull()
        assert pull["status"] == "ok"
        frame = render_dashboard(pull, None, seconds=0.0, health=health)
        assert "shards 2" in frame
        assert "register_user" in frame

        # Kill a worker: the fleet check degrades, detail says why.
        cluster.supervisor.auto_restart = False
        cluster.supervisor.kill(1)
        cluster.supervisor.poll()
        detail = cluster.supervisor.health_detail()
        assert detail[1]["status"] == "down"
        report = cluster.health_report()
        assert report["checks"]["supervisor"]["ok"] is False
        assert "down: 1" in report["checks"]["supervisor"]["detail"]
        health = cluster.request("user00", {"servlet": "health"})
        assert health["checks"]["s1.shard"]["ok"] is False
    finally:
        cluster.close()


def test_describe_exit_renders_signals_and_codes():
    from repro.shard.supervisor import _describe_exit

    assert _describe_exit(None) is None
    assert _describe_exit(0) == "exit code 0"
    assert _describe_exit(3) == "exit code 3"
    assert "SIGKILL" in _describe_exit(-9)


def test_logs_follow_json_lines_are_valid(tmp_path):
    """`repro logs` output is one JSON object per line, replayable."""
    shipper = LogShipper(tmp_path / "s0" / "logs" / "w.jsonl", shard="0")
    shipper.log_sink({"ts": 1.0, "event": "one", "level": "info"})
    shipper.log_sink({"ts": 2.0, "event": "two", "level": "error"})
    shipper.close()
    errors = read_shipped_records(tmp_path, kind="log", level="error")
    assert [r["event"] for r in errors] == ["two"]
    for record in read_shipped_records(tmp_path):
        json.dumps(record)  # round-trips
