"""``repro top``: a plain-text cluster dashboard.

No curses, no third-party TUI: the loop clears the terminal with ANSI
escapes and reprints a fixed-layout report each interval, so it works
over any dumb pipe (ssh, CI logs, ``script``).  All data comes from two
wire calls a monitoring agent could make itself:

* ``metrics_pull`` — the cluster-merged raw metric snapshot (bucket
  counts, so the p50/p99 columns are *exact* cluster percentiles, not
  averages of per-shard percentiles), plus ``by_shard`` for drill-down.
* ``health`` — scatter-merged checks and SLO burn rates, enriched by
  the router with supervisor lifecycle state (restarts, backoff, last
  exit reason per shard).

Rates (the req/s column) are deltas between two consecutive pulls over
the wall-clock interval; the first frame therefore shows totals only.

:func:`render_dashboard` is pure (payloads in, string out) so tests can
assert on frames without a terminal; :func:`run_top` owns the loop and
is the one place in the package allowed to ``print``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from .metrics import summarize_histogram_raw

#: ANSI: clear screen + home.  Kept as a constant so tests (and anyone
#: piping frames to a file) can strip it.
CLEAR = "\x1b[2J\x1b[H"


def split_name(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`repro.obs.metrics.render_name`:
    ``"a.b{x=1,y=2}"`` -> ``("a.b", {"x": "1", "y": "2"})``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: dict[str, str] = {}
    for part in inner.split(","):
        if "=" in part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


def _by_label(
    section: dict[str, Any], name: str, label: str,
) -> dict[str, Any]:
    """Values of instrument *name* keyed by one label's value."""
    out: dict[str, Any] = {}
    for key, value in section.items():
        base, labels = split_name(key)
        if base == name and label in labels:
            out[labels[label]] = value
    return out


def _total(section: dict[str, float], name: str) -> float:
    return sum(
        v for k, v in section.items() if split_name(k)[0] == name
    )


def _fmt_seconds(value: float) -> str:
    """Latency cell: milliseconds with microsecond resolution below."""
    if value >= 1.0:
        return f"{value:7.2f}s "
    if value >= 1e-3:
        return f"{value * 1e3:7.2f}ms"
    return f"{value * 1e6:7.0f}us"


def _rate(now: float | None, prev: float | None, seconds: float) -> str:
    if now is None or prev is None or seconds <= 0:
        return "      -"
    return f"{max(0.0, now - prev) / seconds:7.1f}"


def _servlet_rows(
    metrics: dict[str, Any],
    prev: dict[str, Any] | None,
    seconds: float,
) -> list[str]:
    requests = _by_label(
        metrics.get("counters", {}), "server.servlets.requests", "servlet")
    errors = _by_label(
        metrics.get("counters", {}), "server.servlets.errors", "servlet")
    latency = _by_label(
        metrics.get("histograms", {}), "server.servlets.latency", "servlet")
    prev_requests = _by_label(
        (prev or {}).get("counters", {}),
        "server.servlets.requests", "servlet")
    rows = []
    for servlet in sorted(requests, key=lambda s: -requests[s]):
        summary = summarize_histogram_raw(
            latency.get(servlet) or {"buckets": [], "counts": [],
                                     "sum": 0.0, "count": 0})
        rows.append(
            f"  {servlet:<20}{requests[servlet]:>9.0f}"
            f"{_rate(requests[servlet], prev_requests.get(servlet), seconds):>8}"
            f"{errors.get(servlet, 0.0):>7.0f}"
            f"  {_fmt_seconds(summary['p50'])}"
            f"  {_fmt_seconds(summary['p99'])}"
        )
    return rows


def _cache_rows(metrics: dict[str, Any]) -> list[str]:
    counters = metrics.get("counters", {})
    hits = _by_label(counters, "cache.hits", "cache")
    misses = _by_label(counters, "cache.misses", "cache")
    entries = _by_label(metrics.get("gauges", {}), "cache.entries", "cache")
    rows = []
    for name in sorted(hits):
        h, m = hits[name], misses.get(name, 0.0)
        rate = h / (h + m) if h + m else 0.0
        rows.append(
            f"  {name:<12}{entries.get(name, 0.0):>9.0f}{h:>9.0f}"
            f"{m:>9.0f}{rate:>9.2f}"
        )
    return rows


def _storage_rows(metrics: dict[str, Any]) -> list[str]:
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    rows = [
        f"  kv: puts {_total(counters, 'storage.kvstore.puts'):.0f}"
        f"  deletes {_total(counters, 'storage.kvstore.deletes'):.0f}"
        f"  compactions {_total(counters, 'storage.kvstore.compactions'):.0f}"
        f"  wal-commits {_total(counters, 'storage.relational.commits'):.0f}"
    ]
    lag = _by_label(gauges, "storage.versioning.lag", "consumer")
    if lag:
        worst = max(lag.items(), key=lambda kv: kv[1])
        rows.append(
            f"  versioning lag: worst {worst[1]:.0f} ({worst[0]})"
            f"  live versions "
            f"{_total(gauges, 'storage.versioning.live_versions'):.0f}"
        )
    return rows


def _shard_rows(health: dict[str, Any] | None) -> list[str]:
    if not health:
        return ["  (no health payload)"]
    rows = []
    supervisor = health.get("supervisor") or {}
    for shard in sorted(supervisor, key=lambda s: int(s)):
        d = supervisor[shard]
        line = (
            f"  shard {shard:<3} {d.get('status', '?'):<8}"
            f" restarts {d.get('restarts', 0):<3}"
        )
        if d.get("backoff_remaining"):
            line += f" backoff {d['backoff_remaining']:.2f}s"
        if d.get("last_exit"):
            line += f"  last exit: {d['last_exit']}"
        rows.append(line)
    if not supervisor:
        for name, check in sorted((health.get("checks") or {}).items()):
            flag = "ok" if check.get("ok") else "FAIL"
            rows.append(f"  {name:<24} {flag:<5} {check.get('detail', '')}")
    return rows


def _slo_rows(health: dict[str, Any] | None) -> list[str]:
    slos = (health or {}).get("slos") or {}
    rows = []
    for name, slo in sorted(slos.items()):
        if slo.get("status") == "ok" and not slo.get("errors"):
            continue
        rows.append(
            f"  {name:<24}{slo.get('status', '?'):<8}"
            f" burn {slo.get('burn_short', 0.0):6.2f}/{slo.get('burn_long', 0.0):6.2f}"
            f"  errors {slo.get('errors', 0):.0f}"
        )
    if not rows:
        rows.append(f"  all {len(slos)} SLOs ok, no error budget burning")
    return rows


def render_dashboard(
    pull: dict[str, Any],
    prev: dict[str, Any] | None = None,
    *,
    seconds: float = 0.0,
    health: dict[str, Any] | None = None,
) -> str:
    """One dashboard frame (pure: payloads in, multi-line string out).

    ``pull``/``prev`` are consecutive ``metrics_pull`` responses (the
    merged ``metrics`` key is read; ``by_shard`` drives the shard count);
    ``seconds`` is the wall-clock gap between them; ``health`` is a
    (merged) ``health`` response.
    """
    metrics = pull.get("metrics") or {}
    prev_metrics = (prev or {}).get("metrics")
    by_shard = pull.get("by_shard") or {}
    counters = metrics.get("counters", {})
    total = _total(counters, "server.servlets.requests")
    prev_total = (
        _total(prev_metrics.get("counters", {}), "server.servlets.requests")
        if prev_metrics else None
    )
    status = (health or {}).get("health", "?")
    lines = [
        f"memex top — shards {max(len(by_shard), 1)}"
        f"  status {status}"
        f"  requests {total:.0f}"
        f"  req/s {_rate(total, prev_total, seconds).strip()}",
        "",
        "servlets                  reqs   req/s errors      p50        p99",
    ]
    lines += _servlet_rows(metrics, prev_metrics, seconds) or ["  (no traffic)"]
    lines += ["", "shards"]
    lines += _shard_rows(health)
    lines += ["", "caches          entries     hits   misses hit_rate"]
    lines += _cache_rows(metrics) or ["  (no caches)"]
    lines += ["", "storage"]
    lines += _storage_rows(metrics)
    lines += ["", "slo burn (short/long windows; breach at fast-burn 14.4x)"]
    lines += _slo_rows(health)
    return "\n".join(lines)


def run_top(
    request: Callable[[dict[str, Any]], dict[str, Any]],
    *,
    interval: float = 2.0,
    iterations: int | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    clear: bool = True,
) -> int:
    """The refresh loop: pull, render, print, sleep, repeat.

    ``request(payload)`` issues one wire request (the CLI binds it to a
    transport with the operator user); ``iterations=None`` runs until
    KeyboardInterrupt.  Returns 0 on clean exit.
    """
    prev: dict[str, Any] | None = None
    prev_ts: float | None = None
    frame = 0
    try:
        while iterations is None or frame < iterations:
            pull = request({"servlet": "metrics_pull"})
            health = request({"servlet": "health"})
            now = clock()
            seconds = (now - prev_ts) if prev_ts is not None else 0.0
            text = render_dashboard(
                pull, prev, seconds=seconds, health=health)
            print((CLEAR if clear else "") + text)
            prev, prev_ts = pull, now
            frame += 1
            if iterations is None or frame < iterations:
                sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
