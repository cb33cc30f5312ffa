"""Tests for the command-line interface."""

import gc
import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, main

ROOT = Path(__file__).resolve().parent.parent


def test_experiments_lists_all(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for exp in ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"]:
        assert exp in out
    assert "pytest benchmarks/" in out
    # Every listed path or glob names files that exist, and every
    # experiment file under benchmarks/ is listed.
    listed = set()
    for _, pattern, _ in EXPERIMENTS:
        assert pattern in out
        matches = set(ROOT.glob(pattern))
        assert matches, f"{pattern} matches nothing"
        listed |= matches
    experiments = {
        *ROOT.glob("benchmarks/test_e[0-9]*.py"),
        ROOT / "benchmarks/test_ablations.py",
        ROOT / "benchmarks/test_scale.py",
    }
    assert experiments <= listed


def test_generate_prints_stats(capsys):
    assert main([
        "generate", "--seed", "5", "--users", "2",
        "--days", "3", "--pages-per-leaf", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "pages" in out
    assert "events" in out
    assert "topic locality" in out


def test_demo_runs_end_to_end(capsys):
    assert main([
        "demo", "--seed", "5", "--users", "4",
        "--days", "8", "--pages-per-leaf", "6",
    ]) == 0
    out = capsys.readouterr().out
    assert "# search" in out
    assert "# trail tab" in out
    assert "# similar users" in out


def test_queries_runs_end_to_end(capsys):
    assert main([
        "queries", "--seed", "5", "--users", "4",
        "--days", "8", "--pages-per-leaf", "6", "--user", "user01",
    ]) == 0
    out = capsys.readouterr().out
    assert "q1_url_recall" in out
    assert "q6_interest_mates" in out


def test_stats_prints_a_top_frame_or_the_two_payloads(capsys):
    args = ["stats", "--seed", "5", "--users", "2", "--days", "3",
            "--pages-per-leaf", "3"]
    # The health verdict reads the replay's latencies: a collection of
    # the whole test session's heap (~250 ms) landing in one of its few
    # timed ``batch`` requests would burn that servlet's latency SLO.
    # Frozen, the session's objects are out of every collection.
    gc.collect()
    gc.freeze()
    try:
        assert main(args + ["--logs"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("memex top — shards 1  status ready")
        for section in ("servlets", "caches", "storage", "slo burn"):
            assert f"\n{section}" in out
        assert "structured log (JSON lines)" in out
        assert main(args + ["--json"]) == 0
    finally:
        gc.unfreeze()
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["health", "metrics_pull"]
    assert payload["metrics_pull"]["metrics"]["counters"]
    assert payload["health"]["health"] == "ready"


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "experiments"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "E1" in proc.stdout


def test_serve_single_process_runs_for_duration(capsys):
    assert main([
        "serve", "--seed", "5", "--users", "2",
        "--days", "2", "--pages-per-leaf", "3",
        "--duration", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "serving on" in out
    assert "stopped" in out


def test_serve_idle_system_leaves_no_consumer_behind(monkeypatch, capsys):
    """After a write is mined while serving and no read follows, every
    versioning consumer has caught up — and none of them is a read
    cache: caches are not consumers, so an idle one cannot pin the
    published version against GC."""
    import threading

    from repro.core.memex import MemexServer
    from repro.server.transport import SocketTransport
    from repro.webgen import build_workload

    workload_args = ["--seed", "5", "--users", "2",
                     "--days", "2", "--pages-per-leaf", "3"]
    corpus = build_workload(
        seed=5, num_users=2, days=2, pages_per_leaf=3).corpus
    served = {}
    listening = threading.Event()
    real_listen = MemexServer.listen

    def listen(self, **kwargs):
        net = real_listen(self, **kwargs)
        served.update(server=self, address=net.address,
                      published=self.repo.versions.published_version)
        listening.set()
        return net

    monkeypatch.setattr(MemexServer, "listen", listen)

    def visit_an_unseen_page():
        assert listening.wait(timeout=60.0)
        server = served["server"]
        user = next(server.repo.db.table("users").scan())["user_id"]
        unseen = sorted(
            url for url in corpus.pages
            if server.repo.page_text(url) is None
        )[0]
        with SocketTransport(*served["address"]) as transport:
            served["response"] = transport.request(
                user, {"servlet": "visit", "url": unseen, "at": 1e9})

    writer = threading.Thread(target=visit_an_unseen_page)
    writer.start()
    try:
        assert main(["serve", *workload_args, "--duration", "2.0"]) == 0
    finally:
        writer.join(timeout=60.0)
    assert not writer.is_alive()
    assert served["response"]["status"] == "ok"
    versions = served["server"].repo.versions
    # The visit was crawled and indexed while serving ...
    assert versions.published_version > served["published"]
    # ... and with no read arriving, nothing is left behind.
    lags = versions.lags()
    assert not [name for name in lags if name.startswith("cache.")]
    assert lags and set(lags.values()) == {0}


def test_serve_sharded_replays_and_drains(capsys, tmp_path):
    assert main([
        "serve", "--seed", "5", "--users", "3",
        "--days", "2", "--pages-per-leaf", "3",
        "--shards", "2", "--data-dir", str(tmp_path),
        "--duration", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "shards=2" in out
    assert "stopped" in out
    # --data-dir lays out one private directory per shard.
    assert (tmp_path / "shard-00").is_dir()
    assert (tmp_path / "shard-01").is_dir()


def test_serve_drains_on_sigterm(capsys):
    import os
    import signal
    import threading

    # No --duration: the loop runs until the SIGTERM handler fires.
    timer = threading.Timer(
        1.0, lambda: os.kill(os.getpid(), signal.SIGTERM))
    timer.start()
    try:
        assert main([
            "serve", "--seed", "5", "--users", "2",
            "--days", "2", "--pages-per-leaf", "3",
            "--shards", "2",
        ]) == 0
    finally:
        timer.cancel()
    out = capsys.readouterr().out
    assert "SIGTERM drains" in out
    assert "stopped" in out


# -- trace / logs readers over shipped JSONL fixtures -------------------------

_TRACE = "ab" * 16


def _ship_fixture(root):
    """A two-stream shipped layout: router span parenting a worker span."""
    import json

    router = root / "router" / "logs"
    worker = root / "shard-00" / "logs"
    router.mkdir(parents=True)
    worker.mkdir(parents=True)
    dispatch = {
        "kind": "span", "trace_id": _TRACE, "span_id": "11" * 8,
        "parent_id": None, "name": "router.dispatch", "start": 0.0,
        "end": 0.004, "duration": 0.004, "attributes": {"servlet": "visit"},
        "error": None, "wall_ts": 100.0, "shard": "router",
    }
    servlet = {
        "kind": "span", "trace_id": _TRACE, "span_id": "22" * 8,
        "parent_id": "11" * 8, "name": "servlet.visit", "start": 0.001,
        "end": 0.003, "duration": 0.002, "attributes": {},
        "error": None, "wall_ts": 100.001, "shard": "0",
    }
    log = {
        "kind": "log", "level": "warning", "logger": "servlets",
        "event": "slow_request", "trace_id": _TRACE,
        "wall_ts": 100.002, "shard": "0",
    }
    (router / "router.jsonl").write_text(json.dumps(dispatch) + "\n")
    (worker / "worker.jsonl").write_text(
        json.dumps(servlet) + "\n" + json.dumps(log) + "\n")


def test_trace_cli_reassembles_cross_stream_tree(capsys, tmp_path):
    _ship_fixture(tmp_path)
    assert main(["trace", _TRACE, "--data-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 spans" in out and "2 stream(s)" in out
    assert "router.dispatch" in out
    assert "servlet.visit" in out
    # The worker span renders as a child (indented under the router hop).
    dispatch_line, servlet_line = [
        line for line in out.splitlines()
        if "router.dispatch" in line or "servlet.visit" in line
    ]
    indent = lambda s: len(s) - len(s.lstrip())  # noqa: E731
    assert indent(servlet_line) > indent(dispatch_line)


def test_trace_cli_unknown_trace_fails(capsys, tmp_path):
    _ship_fixture(tmp_path)
    assert main(["trace", "cd" * 16, "--data-dir", str(tmp_path)]) == 1
    assert "no spans" in capsys.readouterr().err


def test_logs_cli_filters_by_trace_and_kind(capsys, tmp_path):
    import json

    _ship_fixture(tmp_path)
    assert main(["logs", "--data-dir", str(tmp_path),
                 "--trace", _TRACE]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    # Default: log records only, spans need --spans.
    assert [r["kind"] for r in lines] == ["log"]
    assert lines[0]["event"] == "slow_request"

    assert main(["logs", "--data-dir", str(tmp_path), "--spans",
                 "--trace", _TRACE]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    # Merged across streams in wall-clock order, spans included.
    assert [r["kind"] for r in lines] == ["span", "span", "log"]
    assert lines[0]["name"] == "router.dispatch"
