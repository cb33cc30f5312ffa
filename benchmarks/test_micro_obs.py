"""M-obs — observability overhead microbenchmarks.

The obs subsystem rides the hottest paths in the server (every servlet
dispatch, every daemon run, every storage write), so its cost must be
demonstrably small.  The headline check: the servlet request path with
obs enabled (the MemexServer default — metrics on, tracer sampling 1-in-8
top-level spans) stays within 5% of the same path with obs disabled.

The request path measured is the one a client actually exercises:
``transport.request`` → protocol encode/decode → servlet dispatch →
repository writes.  Timing uses interleaved A/B batches aggregated by
minimum, the estimator most robust to the additive noise of a shared
machine; see ``test_enabled_overhead_under_5_percent`` for why the
headline gate measures the obs delta differentially rather than as a
whole-server A/B.
"""

import json
import os
import time
from pathlib import Path

from repro.core import MemexServer
from repro.obs import IdSource, LogHub, MetricsRegistry, TraceContext, Tracer
from repro.server.servlets import ServletRegistry

QUICK = bool(os.environ.get("MEMEX_BENCH_QUICK"))
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def _make_server(enabled):
    kwargs = {}
    if not enabled:
        kwargs = dict(
            metrics=MetricsRegistry(enabled=False),
            tracer=Tracer(enabled=False),
        )
    server = MemexServer(
        lambda url: ("title", "body text for " + url, []), **kwargs,
    )
    server.transport.request(
        "u", {"servlet": "register_user", "user_id": "u", "at": 0.0},
    )
    return server


def _visit_batch(server, n, base):
    request = server.transport.request
    for i in range(n):
        request("u", {
            "servlet": "visit", "user_id": "u",
            "url": f"http://s/{base + i}", "at": float(base + i),
        })


def test_bench_request_path_obs_enabled(benchmark):
    server = _make_server(enabled=True)
    seq = [0]

    def batch():
        seq[0] += 200
        _visit_batch(server, 200, seq[0])

    benchmark.pedantic(batch, rounds=5, iterations=1)
    assert server.metrics.counter_value(
        "server.servlets.requests", servlet="visit") > 0


def test_bench_request_path_obs_disabled(benchmark):
    server = _make_server(enabled=False)
    seq = [0]

    def batch():
        seq[0] += 200
        _visit_batch(server, 200, seq[0])

    benchmark.pedantic(batch, rounds=5, iterations=1)
    assert server.registry.stats()["served"] > 0


def test_bench_counter_inc(benchmark):
    c = MetricsRegistry().counter("bench.counter")
    benchmark(lambda: c.inc())
    assert c.value > 0


def test_bench_histogram_observe(benchmark):
    h = MetricsRegistry().histogram("bench.latency")
    benchmark(lambda: h.observe(0.00042))
    assert h.count > 0


def test_bench_span_open_close(benchmark):
    tracer = Tracer(capacity=256)

    def one_span():
        with tracer.span("bench.op"):
            pass

    benchmark(one_span)


def test_bench_dispatch_only_enabled(benchmark):
    """Dispatch without transport framing, worst case for relative cost."""
    reg = ServletRegistry(metrics=MetricsRegistry(), tracer=Tracer())
    reg.register("echo", lambda req: {"x": 1})
    request = {"servlet": "echo"}
    benchmark(lambda: reg.dispatch(request))


def _best_dispatch_ns(registry, rounds=30, n=2000):
    best = float("inf")
    dispatch = registry.dispatch
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(n):
            dispatch({"servlet": "echo"})
        best = min(best, (time.perf_counter() - start) / n)
    return best


def test_enabled_overhead_under_5_percent():
    """The acceptance criterion: obs enabled (the server defaults) adds
    <5% to the servlet request path.

    Naively A/B-timing two full server instances is not a usable
    estimator here: two separately constructed servers differ by several
    percent from allocator/heap-layout luck alone (the sign of the gap
    flips between runs), which swamps a sub-microsecond effect.  A
    call-count diff (cProfile) of the two variants shows the structural
    difference is ~2 extra calls per request, so instead the gate
    measures the obs cost *differentially* where layouts are identical:
    the per-dispatch delta between an enabled and a disabled
    ServletRegistry driving the same trivial handler (interleaved,
    min-aggregated — the estimator most robust to additive noise), then
    compares that delta against the real end-to-end visit request time.
    """
    enabled = ServletRegistry(metrics=MetricsRegistry(), tracer=Tracer(sample_every=8))
    disabled = ServletRegistry(
        metrics=MetricsRegistry(enabled=False), tracer=Tracer(enabled=False))
    for reg in (enabled, disabled):
        reg.register("echo", lambda req: {"x": 1})
        _best_dispatch_ns(reg, rounds=2, n=500)  # warm caches

    best_on = best_off = float("inf")
    for r in range(15):
        order = [enabled, disabled] if r % 2 == 0 else [disabled, enabled]
        for reg in order:
            t = _best_dispatch_ns(reg, rounds=1, n=2000)
            if reg is enabled:
                best_on = min(best_on, t)
            else:
                best_off = min(best_off, t)
    obs_delta = best_on - best_off

    # The denominator: what a real servlet request costs end to end.
    server = _make_server(enabled=True)
    _visit_batch(server, 500, 0)
    request_time = float("inf")
    for r in range(8):
        start = time.perf_counter()
        _visit_batch(server, 300, 100_000 + r * 300)
        request_time = min(request_time, (time.perf_counter() - start) / 300)

    overhead = obs_delta / request_time
    assert overhead < 0.05, (
        f"obs overhead {overhead:.1%} on the servlet request path "
        f"(per-dispatch obs delta {obs_delta * 1e9:.0f}ns, "
        f"request time {request_time * 1e6:.2f}us)"
    )


def _best_cycle_ns(registry, requests, rounds, n):
    """Minimum per-dispatch time cycling through *requests* in order."""
    best = float("inf")
    dispatch = registry.dispatch
    k = len(requests)
    for _ in range(rounds):
        start = time.perf_counter()
        for i in range(n):
            dispatch(requests[i % k])
        best = min(best, (time.perf_counter() - start) / n)
    return best


def test_v2_propagation_and_logging_overhead_under_5_percent():
    """Obs v2 gate: trace *propagation* plus structured logging enabled
    (the full production configuration — metrics on, tracer at the
    default 1-in-8 sampling, log hub attached, slow-request threshold
    armed, and a traceparent arriving on 1-in-8 requests, which is what
    a default-sampled client stamps) still adds <5% to the servlet
    request path.  Same differential estimator as the v1 gate above;
    the measured numbers land in ``BENCH_obs.json``.
    """
    hub = LogHub()
    enabled = ServletRegistry(
        metrics=MetricsRegistry(), tracer=Tracer(sample_every=8),
        log=hub.logger("servlets"), slow_request_threshold=60.0,
    )
    disabled = ServletRegistry(
        metrics=MetricsRegistry(enabled=False), tracer=Tracer(enabled=False))
    for reg in (enabled, disabled):
        reg.register("echo", lambda req: {"x": 1})

    ids = IdSource(seed=5)
    tp = TraceContext(ids.trace_id(), ids.span_id()).to_traceparent()
    traced = [{"servlet": "echo"} for _ in range(7)] + [
        {"servlet": "echo", "traceparent": tp}]
    plain = [{"servlet": "echo"} for _ in range(8)]
    for reg, requests in ((enabled, traced), (disabled, plain)):
        _best_cycle_ns(reg, requests, rounds=2, n=500)  # warm caches

    sweeps, n = (6, 800) if QUICK else (15, 2000)
    best_on = best_off = float("inf")
    for r in range(sweeps):
        pairs = [(enabled, traced), (disabled, plain)]
        if r % 2:
            pairs.reverse()
        for reg, requests in pairs:
            t = _best_cycle_ns(reg, requests, rounds=1, n=n)
            if reg is enabled:
                best_on = min(best_on, t)
            else:
                best_off = min(best_off, t)
    obs_delta = best_on - best_off

    # Denominator: a real visit request, 1-in-8 carrying a traceparent.
    server = _make_server(enabled=True)
    request = server.transport.request
    _visit_batch(server, 200 if QUICK else 500, 0)
    per, request_time = 100 if QUICK else 300, float("inf")
    for r in range(4 if QUICK else 8):
        base = 100_000 + r * per
        start = time.perf_counter()
        for i in range(per):
            payload = {
                "servlet": "visit", "user_id": "u",
                "url": f"http://s/{base + i}", "at": float(base + i),
            }
            if i % 8 == 0:
                payload["traceparent"] = tp
            request("u", payload)
        request_time = min(request_time, (time.perf_counter() - start) / per)

    overhead = obs_delta / request_time
    assert overhead < 0.05, (
        f"obs v2 overhead {overhead:.1%} on the servlet request path "
        f"(per-dispatch delta {obs_delta * 1e9:.0f}ns, "
        f"request time {request_time * 1e6:.2f}us)"
    )


def test_v3_cluster_observability_overhead_and_publish():
    """Obs v3 gate, two legs, published to ``BENCH_obs.json``:

    1. *Single process*: the full v3 configuration — metrics, tracer at
       1-in-8, structured logging, slow-request threshold, and a
       ``metrics_pull`` raw snapshot taken mid-run — still adds <5% to
       the servlet request path (same differential estimator as the
       v1/v2 gates).
    2. *Router hop*: a 2-shard dispatcher with the router tracer enabled
       (traceparent parse + ``router.dispatch`` span + per-hop stamping,
       1-in-8 requests traced) adds <5% over the identical dispatcher
       with tracing off.

    The pull path itself (raw snapshot + scatter merge) is reported but
    not gated: it runs at dashboard cadence (seconds), not per request.
    """
    from repro.shard.gather import LocalBackend, ShardDispatcher

    ids = IdSource(seed=9)
    tp = TraceContext(ids.trace_id(), ids.span_id()).to_traceparent()

    # -- leg 1: single-process, full v3 config ------------------------------
    hub = LogHub()
    enabled = ServletRegistry(
        metrics=MetricsRegistry(), tracer=Tracer(sample_every=8),
        log=hub.logger("servlets"), slow_request_threshold=60.0,
    )
    disabled = ServletRegistry(
        metrics=MetricsRegistry(enabled=False), tracer=Tracer(enabled=False))
    for reg in (enabled, disabled):
        reg.register("echo", lambda req: {"x": 1})

    traced = [{"servlet": "echo"} for _ in range(7)] + [
        {"servlet": "echo", "traceparent": tp}]
    plain = [{"servlet": "echo"} for _ in range(8)]
    for reg, requests in ((enabled, traced), (disabled, plain)):
        _best_cycle_ns(reg, requests, rounds=2, n=500)  # warm caches

    sweeps, n = (6, 800) if QUICK else (15, 2000)
    best_on = best_off = float("inf")
    for r in range(sweeps):
        pairs = [(enabled, traced), (disabled, plain)]
        if r % 2:
            pairs.reverse()
        for reg, requests in pairs:
            t = _best_cycle_ns(reg, requests, rounds=1, n=n)
            if reg is enabled:
                best_on = min(best_on, t)
            else:
                best_off = min(best_off, t)
    sp_delta = best_on - best_off

    server = _make_server(enabled=True)
    _visit_batch(server, 200 if QUICK else 500, 0)
    per, request_time = 100 if QUICK else 300, float("inf")
    for r in range(4 if QUICK else 8):
        base = 200_000 + r * per
        start = time.perf_counter()
        _visit_batch(server, per, base)
        request_time = min(request_time, (time.perf_counter() - start) / per)
    sp_overhead = sp_delta / request_time

    # The pull path, reported for the record (dashboard cadence).
    start = time.perf_counter()
    pull = server.transport.request("u", {"servlet": "metrics_pull"})
    pull_time = time.perf_counter() - start
    assert pull["status"] == "ok"

    # -- leg 2: the router hop ----------------------------------------------
    def _cluster_dispatcher(traced_router):
        registries = []
        for _ in range(2):
            reg = ServletRegistry(metrics=MetricsRegistry())
            reg.register("echo", lambda req: {"x": 1})
            reg.register(
                "metrics_pull",
                lambda req, m=reg.metrics: {"metrics": m.raw_snapshot()},
            )
            registries.append(reg)
        return ShardDispatcher(
            [LocalBackend(reg) for reg in registries],
            tracer=Tracer(sample_every=8) if traced_router else None,
        )

    router_on = _cluster_dispatcher(True)
    router_off = _cluster_dispatcher(False)
    users = [f"user{i:02d}" for i in range(8)]
    hop_traced = [
        {"servlet": "echo", "user_id": users[i],
         **({"traceparent": tp} if i == 0 else {})}
        for i in range(8)
    ]
    hop_plain = [
        {"servlet": "echo", "user_id": users[i]} for i in range(8)]
    for disp, requests in ((router_on, hop_traced), (router_off, hop_plain)):
        _best_cycle_ns(disp, requests, rounds=2, n=500)  # warm caches

    hop_on = hop_off = float("inf")
    for r in range(sweeps):
        pairs = [(router_on, hop_traced), (router_off, hop_plain)]
        if r % 2:
            pairs.reverse()
        for disp, requests in pairs:
            t = _best_cycle_ns(disp, requests, rounds=1, n=n)
            if disp is router_on:
                hop_on = min(hop_on, t)
            else:
                hop_off = min(hop_off, t)
    hop_delta = hop_on - hop_off
    # Denominator: what a routed request costs end to end through the
    # single-process server above (the router hop rides that same path
    # in a cluster; LocalBackend dispatch alone would overstate the
    # relative cost by orders of magnitude).
    hop_overhead = hop_delta / request_time

    # Scatter + bucket-wise merge cost, reported only.
    start = time.perf_counter()
    merged = router_on.dispatch(
        {"servlet": "metrics_pull", "user_id": users[0]})
    scatter_time = time.perf_counter() - start
    assert merged["status"] == "ok" and set(merged["by_shard"]) == {"0", "1"}

    payload = {
        "benchmark": "obs_v3_cluster_observability_overhead",
        "quick": QUICK,
        "config": {
            "tracer_sample_every": 8,
            "traceparent_every": 8,
            "logging": True,
            "slow_request_threshold": 60.0,
            "router_shards": 2,
        },
        "single_process": {
            "per_dispatch_delta_ns": round(sp_delta * 1e9, 1),
            "request_time_us": round(request_time * 1e6, 2),
            "overhead_pct": round(sp_overhead * 100, 2),
        },
        "router_hop": {
            "per_dispatch_delta_ns": round(hop_delta * 1e9, 1),
            "request_time_us": round(request_time * 1e6, 2),
            "overhead_pct": round(hop_overhead * 100, 2),
        },
        "pull_path": {
            "metrics_pull_us": round(pull_time * 1e6, 2),
            "scatter_merge_us": round(scatter_time * 1e6, 2),
        },
        "gate_pct": 5.0,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    assert sp_overhead < 0.05, (
        f"obs v3 single-process overhead {sp_overhead:.1%} "
        f"(delta {sp_delta * 1e9:.0f}ns, request {request_time * 1e6:.2f}us)"
    )
    assert hop_overhead < 0.05, (
        f"obs v3 router-hop overhead {hop_overhead:.1%} "
        f"(delta {hop_delta * 1e9:.0f}ns, request {request_time * 1e6:.2f}us)"
    )
