"""Run reports and gates: shape a :class:`RunResult` for publication.

The report is the JSON the bench files publish (``BENCH_load.json``)
and the CLI prints: offered vs achieved rate, shed count, per-kind
latency percentiles from the runner's client-side histograms, error and
retry counts, and — when the server's ``health`` servlet payload is
passed in — the server-side SLO view (p95 and error-budget burn rates
from the PR 4 health layer).

Two gates turn a report into a pass/fail:

* :func:`assert_p99` — client-observed p99 for a kind under a bound;
* :func:`burn_rate_ok` — no servlet SLO is burning its error budget at
  :data:`~repro.obs.health.FAST_BURN` in both windows (the same
  condition the health engine calls ``breach``, minus the latency
  clause: an overload run legitimately pushes p95 past the default
  100 ms target on shared hardware, but error-budget burn means
  *failed* requests, which the harness never tolerates).
"""

from __future__ import annotations

from typing import Any

from ..obs.health import FAST_BURN
from ..obs.metrics import diff_snapshots, summarize_histogram_raw
from .runner import RunResult

PERCENTILE_KEYS = ("p50", "p95", "p99")

#: Counter prefixes worth publishing in the server-side delta (the full
#: snapshot has hundreds of instruments; the report keeps the ones a
#: load run actually interrogates).
_DELTA_PREFIXES = (
    "server.servlets.",
    "server.crawler.",
    "server.indexer.",
    "storage.relational.commits",
    "storage.kvstore.",
    "cache.",
    "shard.",
)


def metrics_delta(
    before: dict[str, Any] | None,
    after: dict[str, Any] | None,
) -> dict[str, Any] | None:
    """Server-side work done during the run, from two ``metrics_pull``
    responses taken before and after.

    Counters are after-minus-before (clamped at zero across restarts);
    servlet latency histograms are differenced bucket-wise and
    summarized, so the published p50/p99 covers *only* requests served
    inside the window — unlike the cumulative ``stats`` view.  Returns
    ``None`` unless both pulls carry a merged ``metrics`` payload.
    """
    if not before or not after:
        return None
    b, a = before.get("metrics"), after.get("metrics")
    if not isinstance(b, dict) or not isinstance(a, dict):
        return None
    delta = diff_snapshots(b, a)
    counters = {
        name: value
        for name, value in sorted(delta.get("counters", {}).items())
        if value and name.startswith(_DELTA_PREFIXES)
    }
    latency = {}
    for name, raw in sorted(delta.get("histograms", {}).items()):
        if not name.startswith("server.servlets.latency") or not raw["count"]:
            continue
        summary = summarize_histogram_raw(raw)
        latency[name] = {
            "count": summary["count"],
            "p50": round(summary["p50"], 6),
            "p99": round(summary["p99"], 6),
        }
    out: dict[str, Any] = {"counters": counters, "latency": latency}
    by_before = before.get("by_shard") or {}
    by_after = after.get("by_shard") or {}
    by_shard: dict[str, Any] = {}
    for shard in sorted(by_after):
        b_shard = (by_before.get(shard) or {}).get("metrics")
        a_shard = (by_after.get(shard) or {}).get("metrics")
        if not isinstance(a_shard, dict):
            continue
        shard_delta = diff_snapshots(
            b_shard if isinstance(b_shard, dict) else {"counters": {}},
            a_shard,
        )
        by_shard[shard] = {
            "requests": sum(
                v for k, v in shard_delta.get("counters", {}).items()
                if k.startswith("server.servlets.requests")
            ),
            "errors": sum(
                v for k, v in shard_delta.get("counters", {}).items()
                if k.startswith("server.servlets.errors")
            ),
        }
    if by_shard:
        out["by_shard"] = by_shard
    return out


def latency_summary(result: RunResult) -> dict[str, dict[str, float]]:
    """Per-kind ``{count, mean, p50, p95, p99, max}`` from the runner's
    histograms (kinds that never fired are omitted)."""
    out: dict[str, dict[str, float]] = {}
    for kind in sorted(result.latency):
        hist = result.latency[kind]
        if not hist.count:
            continue
        summary = hist.summary()
        out[kind] = {
            "count": summary["count"],
            "mean": round(summary["mean"], 6),
            "p50": round(summary["p50"], 6),
            "p95": round(summary["p95"], 6),
            "p99": round(summary["p99"], 6),
            "max": round(summary["max"], 6),
        }
    return out


def build_report(
    result: RunResult,
    *,
    label: str = "",
    offered_rate: float = 0.0,
    health: dict[str, Any] | None = None,
    chaos: list[dict[str, Any]] | None = None,
    metrics_before: dict[str, Any] | None = None,
    metrics_after: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The publishable view of one run.

    ``metrics_before``/``metrics_after`` are ``metrics_pull`` responses
    bracketing the run; when both are given the report carries a
    ``server_metrics`` delta (see :func:`metrics_delta`).
    """
    report: dict[str, Any] = {
        "label": label,
        "duration_s": round(result.duration, 3),
        "offered_requests": result.offered,
        "offered_rate": round(offered_rate, 3),
        "achieved_rate": round(result.achieved_rate, 3),
        "sent": result.sent,
        "shed": result.shed,
        "errors": {k: v for k, v in sorted(result.errors.items()) if v},
        "total_errors": result.total_errors,
        "retries": result.retries,
        "acked_visits": result.total_acked,
        "registered_users": result.registered,
        "latency": latency_summary(result),
    }
    if health is not None:
        report["server_slos"] = {
            name: {
                "status": slo.get("status"),
                "p95": slo.get("p95"),
                "burn_short": slo.get("burn_short"),
                "burn_long": slo.get("burn_long"),
                "error_rate_short": slo.get("error_rate_short"),
            }
            for name, slo in sorted((health.get("slos") or {}).items())
        }
        report["server_health"] = health.get("health")
    delta = metrics_delta(metrics_before, metrics_after)
    if delta is not None:
        report["server_metrics"] = delta
    if chaos is not None:
        report["chaos"] = [
            {
                "at": rec["event"].at,
                "action": rec["event"].action,
                "shard": rec["event"].shard,
                "elapsed": round(rec["elapsed"], 3),
                "detail": rec.get("detail"),
                "error": rec.get("error"),
            }
            for rec in chaos
        ]
    return report


def assert_p99(
    report: dict[str, Any], kind: str, limit: float,
) -> None:
    """Gate: client-observed p99 latency for *kind* must be under
    *limit* seconds.  Raises ``AssertionError`` with the measured value
    (reports should be published *before* gating, so a failed gate
    still leaves the curve on disk)."""
    latency = report.get("latency", {}).get(kind)
    assert latency is not None, f"no {kind!r} latency in report {report.get('label')!r}"
    assert latency["p99"] < limit, (
        f"{report.get('label')}: {kind} p99 {latency['p99']:.4f}s "
        f"exceeds gate {limit:.4f}s"
    )


def burn_rates(health: dict[str, Any]) -> dict[str, tuple[float, float]]:
    """Per-SLO ``(burn_short, burn_long)`` from a health payload."""
    return {
        name: (
            float(slo.get("burn_short", 0.0)),
            float(slo.get("burn_long", 0.0)),
        )
        for name, slo in sorted((health.get("slos") or {}).items())
    }


def burn_rate_ok(
    health: dict[str, Any], *, limit: float = FAST_BURN,
) -> bool:
    """True iff no servlet SLO burns its error budget at ≥ *limit* in
    **both** windows (the health engine's fast-burn breach condition)."""
    return all(
        not (short >= limit and long >= limit)
        for short, long in burn_rates(health).values()
    )


def render_report(report: dict[str, Any]) -> str:
    """Aligned text rendering for ``repro loadgen``."""
    lines = [
        f"run: {report.get('label') or '(unlabelled)'}",
        f"  duration      {report['duration_s']:.1f}s",
        f"  offered rate  {report['offered_rate']:.1f} req/s"
        f"  (achieved {report['achieved_rate']:.1f})",
        f"  sent/shed     {report['sent']}/{report['shed']}",
        f"  errors        {report['total_errors']}  retries {report['retries']}",
        f"  acked visits  {report['acked_visits']}",
    ]
    latency = report.get("latency", {})
    if latency:
        lines.append(
            f"  {'kind':<12} {'count':>7} {'p50':>9} {'p95':>9} {'p99':>9}"
        )
        for kind in sorted(latency):
            row = latency[kind]
            lines.append(
                f"  {kind:<12} {int(row['count']):>7} {row['p50']:>9.4f} "
                f"{row['p95']:>9.4f} {row['p99']:>9.4f}"
            )
    for rec in report.get("chaos", []):
        lines.append(
            f"  chaos @{rec['elapsed']:.1f}s  {rec['action']}"
            + (f" shard={rec['shard']}" if rec["shard"] is not None else "")
            + (f"  ERROR {rec['error']}" if rec.get("error") else "")
        )
    if "server_health" in report:
        lines.append(f"  server health {report['server_health']}")
    metrics = report.get("server_metrics") or {}
    for shard in sorted(metrics.get("by_shard", {})):
        row = metrics["by_shard"][shard]
        lines.append(
            f"  shard {shard}: served {row['requests']:.0f} requests, "
            f"{row['errors']:.0f} errors (server-side delta)"
        )
    return "\n".join(lines)
