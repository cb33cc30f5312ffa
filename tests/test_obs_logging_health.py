"""Structured logging, SLO burn rates, and the health servlet.

Covers the LogHub ring buffer (trace correlation, level floors, reserved
keys), the multi-window burn-rate SLO engine against a manual clock, the
HealthMonitor's check semantics, the scheduler's quarantine/parole log
events and counters, and the ``health`` servlet flipping ready/degraded
under an injected daemon quarantine.
"""

import json
import threading

import pytest

from repro.core import memex as memex_module
from repro.core.memex import MemexServer
from repro.obs import (
    FAST_BURN,
    HealthMonitor,
    LogHub,
    MetricsRegistry,
    ServletSlo,
    SloPolicy,
    Tracer,
    null_log_hub,
    null_logger,
)
from repro.obs import health as health_module
from repro.obs.clock import ManualClock
from repro.server.daemons import FetchedPage
from repro.server.scheduler import DaemonScheduler
from repro.server.servlets import ServletRegistry


# -- log hub -----------------------------------------------------------------

def test_log_hub_ring_buffer_and_shape():
    hub = LogHub(capacity=4, clock=lambda: 42.0)
    log = hub.logger("comp")
    for i in range(6):
        log.info(f"e{i}", n=i)
    records = hub.records()
    assert len(records) == 4                      # oldest two dropped
    assert hub.emitted == 6
    assert records[0]["event"] == "e2"
    assert records[-1] == {
        "ts": 42.0, "level": "info", "component": "comp",
        "event": "e5", "n": 5, "thread": threading.get_ident(),
    }


def test_log_records_carry_ambient_trace():
    tracer = Tracer()
    hub = LogHub()
    log = hub.logger("c")
    with tracer.span("op") as span:
        log.info("inside")
    log.info("outside")
    inside, outside = hub.records()
    assert inside["trace_id"] == span.trace_id
    assert inside["span_id"] == span.span_id
    assert "trace_id" not in outside


def test_log_reserved_keys_win_over_fields():
    hub = LogHub(clock=lambda: 7.0)
    hub.logger("c").info("real", level="error", component="x", ts=-1.0)
    [record] = hub.records()
    assert record["event"] == "real"
    assert record["level"] == "info"
    assert record["component"] == "c"
    assert record["ts"] == 7.0


def test_log_level_floor_and_filters(monkeypatch):
    monkeypatch.setattr(LogHub, "MIN_LEVEL", "info")
    hub = LogHub()
    a, b = hub.logger("a"), hub.logger("b")
    a.debug("dropped")
    a.info("kept")
    a.warn("w")
    b.error("boom")
    assert [r["event"] for r in hub.records()] == ["kept", "w", "boom"]
    assert [r["event"] for r in hub.records(level="warn")] == ["w", "boom"]
    assert [r["event"] for r in hub.records(component="b")] == ["boom"]
    assert [r["event"] for r in hub.records(limit=1)] == ["boom"]


def test_log_hub_sinks_and_jsonl():
    hub = LogHub(clock=lambda: 1.0)
    seen = []
    hub.attach(seen.append)
    hub.logger("c").warn("evt", k="v")
    hub.detach(seen.append)
    hub.logger("c").warn("after")
    assert [r["event"] for r in seen] == ["evt"]
    lines = hub.render_jsonl().splitlines()
    assert [json.loads(line)["event"] for line in lines] == ["evt", "after"]


def test_null_log_hub_is_noop():
    null_logger("x").error("never")
    assert null_log_hub().records() == []
    assert null_log_hub().emitted == 0


# -- SLO burn rates ----------------------------------------------------------

@pytest.fixture
def short_windows(monkeypatch):
    """SLO windows of 10 s and 100 s, which a test's clock crosses."""
    monkeypatch.setattr(health_module, "SHORT_WINDOW", 10.0)
    monkeypatch.setattr(health_module, "LONG_WINDOW", 100.0)


def _slo(clock, *, error_budget=0.01, target_p95=10.0):
    m = MetricsRegistry()
    latency = m.histogram("lat")
    errors = m.counter("err")
    slo = ServletSlo(
        "visit", SloPolicy(target_p95=target_p95, error_budget=error_budget),
        latency, errors, clock=clock,
    )
    return slo, latency, errors


@pytest.mark.usefixtures("short_windows")
def test_slo_ok_when_quiet():
    clock = ManualClock()
    slo, latency, _ = _slo(clock)
    latency.observe(0.001)
    result = slo.evaluate()
    assert result["status"] == "ok"
    assert result["requests"] == 1
    assert result["errors"] == 0


@pytest.mark.usefixtures("short_windows")
def test_slo_breach_needs_both_windows_burning():
    clock = ManualClock()
    slo, latency, errors = _slo(clock)
    slo.evaluate()
    # Sustained 50% error rate: 50x the 1% budget in BOTH windows.
    for _ in range(20):
        clock.advance(1.0)
        latency.observe(0.001)
        latency.observe(0.001)
        errors.inc()
        result = slo.evaluate()
    assert result["burn_short"] >= FAST_BURN
    assert result["burn_long"] >= FAST_BURN
    assert result["status"] == "breach"


@pytest.mark.usefixtures("short_windows")
def test_slo_short_blip_does_not_breach():
    clock = ManualClock()
    slo, latency, errors = _slo(clock)
    # A long clean history...
    for _ in range(80):
        clock.advance(1.0)
        latency.observe(0.001)
        slo.evaluate()
    # ...then one bad short window: the long window stays under fast burn.
    for _ in range(5):
        clock.advance(1.0)
        latency.observe(0.001)
        errors.inc()
        result = slo.evaluate()
    assert result["burn_short"] >= FAST_BURN
    assert result["burn_long"] < FAST_BURN
    assert result["status"] in ("ok", "warn")


@pytest.mark.usefixtures("short_windows")
def test_slo_latency_target_breach():
    clock = ManualClock()
    slo, latency, _ = _slo(clock, target_p95=0.01)
    for _ in range(20):
        latency.observe(1.0)
    result = slo.evaluate()
    assert not result["latency_ok"]
    assert result["status"] == "breach"


# -- health monitor ----------------------------------------------------------

def test_health_monitor_ready_and_degraded():
    monitor = HealthMonitor(clock=lambda: 0.0)
    healthy = True
    monitor.add_check("thing", lambda: (healthy, {"n": 1}))
    report = monitor.report()
    assert report["live"] is True
    assert report["health"] == "ready"
    assert report["checks"]["thing"]["ok"] is True
    healthy = False
    assert monitor.report()["health"] == "degraded"


def test_health_monitor_check_exception_degrades():
    monitor = HealthMonitor()

    def bad():
        raise RuntimeError("store unreachable")

    monitor.add_check("storage", bad)
    report = monitor.report()
    assert report["health"] == "degraded"
    assert report["checks"]["storage"]["ok"] is False
    assert "store unreachable" in str(report["checks"]["storage"]["detail"])


def test_health_monitor_slo_breach_degrades():
    clock = ManualClock()
    monitor = HealthMonitor(clock=clock)
    monitor.policies["visit"] = SloPolicy(target_p95=0.01)
    m = MetricsRegistry()
    latency, errors = m.histogram("lat"), m.counter("err")
    monitor.slo("visit", latency, errors)
    assert monitor.report()["health"] == "ready"
    for _ in range(20):
        latency.observe(1.0)   # p95 far over target
    report = monitor.report()
    assert report["health"] == "degraded"
    assert report["slos"]["visit"]["status"] == "breach"


# -- scheduler quarantine/parole events --------------------------------------

class _FailingDaemon:
    name = "flaky"

    def __init__(self):
        self.calls = 0

    def run_once(self):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("transient fault")
        return 1


def test_scheduler_quarantine_and_parole_log_and_count():
    metrics = MetricsRegistry()
    hub = LogHub()
    sched = DaemonScheduler(metrics=metrics, log=hub.logger("scheduler"))
    sched.MAX_CONSECUTIVE_FAILURES = 1
    sched.PAROLE_AFTER = 1
    daemon = _FailingDaemon()
    sched.register(daemon)
    sched.tick()    # fails -> quarantined
    assert metrics.counter_value(
        "server.scheduler.quarantines", daemon="flaky") == 1
    [quarantined] = hub.records(level="error")
    assert quarantined["event"] == "daemon_quarantined"
    assert quarantined["daemon"] == "flaky"
    assert quarantined["consecutive_failures"] == 1
    assert "transient fault" in quarantined["last_error"]
    sched.tick()    # paroled and re-run, succeeds
    assert metrics.counter_value(
        "server.scheduler.paroles", daemon="flaky") == 1
    events = [r["event"] for r in hub.records()]
    assert events == ["daemon_quarantined", "daemon_paroled"]
    assert not sched.quarantined()
    assert daemon.calls == 2


def test_scheduler_quarantined_and_wedged_introspection():
    sched = DaemonScheduler()
    sched.MAX_CONSECUTIVE_FAILURES = 1

    class _Dead:
        name = "dead"

        def run_once(self):
            raise RuntimeError("always")

    sched.register(_Dead())
    assert not sched.wedged()
    sched.tick()
    assert "dead" in sched.quarantined()
    assert sched.quarantined()["dead"]["last_error"] == "RuntimeError: always"
    assert sched.wedged()    # the only daemon is down
    sched.lift_quarantine("dead")
    assert not sched.wedged()


# -- slow-request logging ----------------------------------------------------

def test_slow_request_logs_full_span_tree():
    clock = ManualClock()
    metrics = MetricsRegistry(clock=clock)
    tracer = Tracer(clock=clock)
    hub = LogHub(clock=clock)
    reg = ServletRegistry(
        metrics=metrics, tracer=tracer,
        log=hub.logger("servlets"), slow_request_threshold=0.5,
    )

    def slow(request):
        with tracer.child_span("storage.write"):
            clock.advance(2.0)
        return {}

    reg.register("slow", slow)
    reg.register("fast", lambda r: {})
    assert reg.dispatch({"servlet": "fast"})["status"] == "ok"
    assert reg.dispatch({"servlet": "slow"})["status"] == "ok"
    [record] = hub.records(level="warn")
    assert record["event"] == "slow_request"
    assert record["servlet"] == "slow"
    assert record["duration"] >= 2.0
    # The record carries the COMPLETE finished span tree of the request.
    names = sorted(s["name"] for s in record["spans"])
    assert names == ["servlet.slow", "storage.write"]


# -- health servlet ----------------------------------------------------------

PAGES = {
    "http://a/": FetchedPage("http://a/", "A", "alpha beta gamma"),
    "http://b/": FetchedPage("http://b/", "B", "delta epsilon zeta"),
}


def _server(**kwargs):
    return MemexServer(lambda u: PAGES.get(u), **kwargs)


def test_health_servlet_reports_ready_then_degraded_under_quarantine():
    with _server() as server:
        report = server.registry.dispatch({"servlet": "health"})
        assert report["status"] == "ok"
        assert report["live"] is True
        assert report["health"] == "ready"
        assert set(report["checks"]) == {"storage", "scheduler", "versioning"}
        # Inject a quarantine: readiness must flip without any request
        # traffic or daemon run in between.
        server.scheduler._entries["indexer"].quarantined = True
        degraded = server.registry.dispatch({"servlet": "health"})
        assert degraded["health"] == "degraded"
        assert not degraded["checks"]["scheduler"]["ok"]
        assert "indexer" in degraded["checks"]["scheduler"]["detail"]["quarantined"]
        server.scheduler.lift_quarantine("indexer")
        assert server.registry.dispatch({"servlet": "health"})["health"] == "ready"


def test_health_servlet_needs_no_user():
    # Probes (load balancers) have no account; health must not 401.
    with _server() as server:
        report = server.registry.dispatch({"servlet": "health"})
        assert report["status"] == "ok"


def test_health_servlet_binds_slos_from_traffic():
    with _server() as server:
        # An override is set on the monitor before the first `health`
        # binds the servlet's SLO (there is no constructor option).
        server.health.policies["visit"] = SloPolicy(target_p95=5.0)
        server.registry.dispatch({"servlet": "register_user", "user_id": "u"})
        server.registry.dispatch(
            {"servlet": "visit", "user_id": "u", "url": "http://a/", "at": 1.0})
        report = server.registry.dispatch({"servlet": "health"})
        assert "visit" in report["slos"]
        assert report["slos"]["visit"]["target_p95"] == 5.0
        assert report["slos"]["visit"]["requests"] >= 1


def test_health_versioning_lag_check_degrades(monkeypatch):
    monkeypatch.setattr(memex_module, "VERSIONING_LAG_THRESHOLD", 0)
    with _server() as server:
        server.registry.dispatch({"servlet": "register_user", "user_id": "u"})
        server.registry.dispatch(
            {"servlet": "visit", "user_id": "u", "url": "http://a/", "at": 1.0})
        # Crawler publishes a version; consumers haven't acked yet.
        server.crawler.run_once()
        report = server.registry.dispatch({"servlet": "health"})
        assert report["health"] == "degraded"
        assert not report["checks"]["versioning"]["ok"]
        server.process_background_work()
        assert server.registry.dispatch({"servlet": "health"})["health"] == "ready"


def test_stats_servlet_include_logs():
    with _server() as server:
        server.registry.dispatch({"servlet": "register_user", "user_id": "u"})
        server.registry.dispatch(
            {"servlet": "visit", "user_id": "u", "url": "http://a/", "at": 1.0})
        server.process_background_work()
        stats = server.registry.dispatch(
            {"servlet": "stats", "user_id": "u", "include_logs": True})
        assert isinstance(stats["logs"], list)
        events = {r["event"] for r in stats["logs"]}
        assert "version_published" in events
        plain = server.registry.dispatch({"servlet": "stats", "user_id": "u"})
        assert "logs" not in plain


def test_server_wires_one_hub_through_all_components():
    with _server() as server:
        hub = server.logs
        server.registry.dispatch({"servlet": "register_user", "user_id": "u"})
        server.registry.dispatch(
            {"servlet": "visit", "user_id": "u", "url": "http://dead/", "at": 1.0})
        server.process_background_work()
        components = {r["component"] for r in hub.records()}
        # Crawler logged the dead link, versioning the publish.
        assert {"crawler", "versioning"} <= components
