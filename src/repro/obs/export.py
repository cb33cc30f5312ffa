"""Exporters: plain-text table, JSON, and a streaming event feed.

Three ways out of the registry, for three audiences:

* :func:`render_table` — the operator's view (`repro stats`, the demo).
* :func:`to_json` / :func:`from_json` — machine-readable snapshots the
  benchmarks diff across runs.
"""

from __future__ import annotations

import json
from typing import Any

from .metrics import MetricsRegistry
from .tracing import Tracer


def render_health(report: dict[str, Any]) -> str:
    """Aligned text report of a :meth:`HealthMonitor.report` payload."""
    lines: list[str] = [f"health: {report.get('health', 'unknown')}"]
    checks = report.get("checks") or {}
    if checks:
        width = max(len(n) for n in checks)
        for name in sorted(checks):
            check = checks[name]
            mark = "ok" if check.get("ok") else "FAIL"
            lines.append(f"  {name:<{width}}  {mark:<4}  {check.get('detail')}")
    slos = report.get("slos") or {}
    if slos:
        width = max(len(n) for n in slos)
        lines.append(
            f"  {'slo':<{width}}  {'status':<7} {'p95':>10} {'target':>10} "
            f"{'err_short':>10} {'err_long':>10}"
        )
        for name in sorted(slos):
            s = slos[name]
            lines.append(
                f"  {name:<{width}}  {s['status']:<7} {s['p95']:>10.6f} "
                f"{s['target_p95']:>10.6f} {s['error_rate_short']:>10.4f} "
                f"{s['error_rate_long']:>10.4f}"
            )
    return "\n".join(lines)


def render_table(
    registry: MetricsRegistry,
    *,
    tracer: Tracer | None = None,
    health: dict[str, Any] | None = None,
) -> str:
    """Aligned text report of every counter, gauge, and histogram."""
    snap = registry.snapshot()
    lines: list[str] = []

    def section(title: str) -> None:
        if lines:
            lines.append("")
        lines.append(title)
        lines.append("-" * len(title))

    if snap["counters"]:
        section("counters")
        width = max(len(n) for n in snap["counters"])
        for name in sorted(snap["counters"]):
            value = snap["counters"][name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"{name:<{width}}  {shown}")
    if snap["gauges"]:
        section("gauges")
        width = max(len(n) for n in snap["gauges"])
        for name in sorted(snap["gauges"]):
            value = snap["gauges"][name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"{name:<{width}}  {shown}")
    if snap["histograms"]:
        section("histograms (seconds)")
        width = max(len(n) for n in snap["histograms"])
        header = (f"{'':<{width}}  {'count':>7} {'mean':>10} {'p50':>10} "
                  f"{'p95':>10} {'p99':>10} {'max':>10}")
        lines.append(header)
        for name in sorted(snap["histograms"]):
            s = snap["histograms"][name]
            lines.append(
                f"{name:<{width}}  {s['count']:>7} {s['mean']:>10.6f} "
                f"{s['p50']:>10.6f} {s['p95']:>10.6f} {s['p99']:>10.6f} "
                f"{s['max']:>10.6f}"
            )
    if tracer is not None and tracer.finished():
        section(f"recent spans (last {len(tracer.finished())})")
        for span in tracer.finished()[-20:]:
            flag = f"  ERROR {span.error}" if span.error else ""
            lines.append(f"{span.name:<40}  {span.duration:>10.6f}{flag}")
    if health is not None:
        section("health")
        lines.append(render_health(health))
    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)


def to_json(
    registry: MetricsRegistry,
    *,
    tracer: Tracer | None = None,
    health: dict[str, Any] | None = None,
    logs: list[dict[str, Any]] | None = None,
    indent: int | None = None,
) -> str:
    """JSON snapshot; :func:`from_json` round-trips it."""
    payload: dict[str, Any] = {"metrics": registry.snapshot()}
    if tracer is not None:
        payload["spans"] = tracer.to_payload()
    if health is not None:
        payload["health"] = health
    if logs is not None:
        payload["logs"] = logs
    return json.dumps(payload, indent=indent, sort_keys=True, default=str)


def from_json(blob: str) -> dict[str, Any]:
    """Parse a :func:`to_json` snapshot back into plain dicts."""
    return json.loads(blob)
