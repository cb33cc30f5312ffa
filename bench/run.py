#!/usr/bin/env python3
"""One reproducible benchmark for Memex (see ``bench/README.md``).

Two ways in:

* the contract form the driver uses, one workload per invocation::

      python3 bench/run.py --workload read_hot --seed 7 --seconds 10 --trace 0

  ``--trace 0`` runs the workload untraced against an out-of-process
  server and reports the end-to-end metrics; ``--trace 1`` reports the
  per-layer metrics (one untraced run for the server's own counters plus
  the in-process layer ladder of ``ladder.py``).  The last stdout line
  is one JSON object: ``correct``, ``attempted``, ``failed``,
  ``metrics``.

* the suite form for people::

      python3 bench/run.py --seed 23 [--workloads a,b] [--repeat N]
                           [--no-trace] [--smoke] [--out FILE]

  runs every workload (untraced, then traced), prints every metric by
  name with its unit, and writes one results JSON for ``compare.py``.

Exit status is non-zero when a correctness check fails (the metrics are
still printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

try:
    import repro  # noqa: F401 - the program under test must be importable
except ImportError as exc:   # a directory without src/ is not a checkout
    sys.stderr.write(f"bench: cannot import the program under test: {exc}\n")
    raise SystemExit(2)

import harness  # noqa: E402
import ladder  # noqa: E402
import workloads  # noqa: E402
from harness import Child, OUT_DIR, SpeedClock, percentile  # noqa: E402
from repro.obs.metrics import diff_snapshots, summarize_histogram_raw  # noqa: E402
from repro.webgen import build_workload  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
SMOKE_SECONDS = 2.0


# ---------------------------------------------------------------- environment


def fingerprint(seed: int, smoke: bool) -> dict[str, Any]:
    """Where and on what these numbers were taken."""
    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *args], cwd=BENCH_DIR.parent, capture_output=True,
                text=True, timeout=10, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip()

    status = git("status", "--porcelain")
    load1 = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "nproc": nproc,
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": round(load1, 2),
        "noisy": load1 > nproc / 2,
        "seed": seed,
        "smoke": smoke,
    }


# -------------------------------------------------------------- metric shaping


def window_stats(
    outcome: workloads.Outcome, clock: SpeedClock,
) -> dict[str, float]:
    """Throughput, pooled latency percentiles and server CPU per request
    over the workload's windows, on the speed clock (``ref`` = at
    reference machine speed) and raw.

    A request's latency is scaled by the machine speed of the second it
    completed in; an interval is integrated second by second.  The CPU the
    server used is scaled by the busy window's mean speed.
    """
    ok = [s for s in outcome.load.samples if s.ok]
    t0, t1 = outcome.rate_window
    (c0, _), (c1, _) = outcome.cpu.start, outcome.cpu.end
    busy_speed = clock.elapsed(c0, c1) / (c1 - c0)
    raw = sorted(s.latency for s in ok)
    ref = sorted(s.latency * clock.speed(s.start + s.latency) for s in ok)
    n = max(1, len(ok))
    return {
        "throughput_rps": len(ok) / clock.elapsed(t0, t1),
        "latency_p50_ms": percentile(ref, 50) * 1000.0,
        "latency_p95_ms": percentile(ref, 95) * 1000.0,
        "cpu_ms_per_request": outcome.cpu.cpu_s * busy_speed * 1000.0 / n,
        "raw_throughput_rps": len(ok) / (t1 - t0),
        "raw_latency_p50_ms": percentile(raw, 50) * 1000.0,
        "raw_cpu_ms_per_request": outcome.cpu.cpu_s * 1000.0 / n,
        "machine_speed": clock.elapsed(t0, t1) / (t1 - t0),
    }


def _kind_ms(
    outcome: workloads.Outcome, clock: SpeedClock, kind: str, q: float,
) -> float:
    return percentile([
        s.latency * clock.speed(s.start + s.latency)
        for s in outcome.load.samples if s.ok and s.kind == kind
    ], q) * 1000.0


def end_to_end_metrics(
    stats: dict[str, float], setups: list[float], child: Child,
) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": stats["throughput_rps"],
        "latency_p50_ms": stats["latency_p50_ms"],
        "peak_rss_mb": child.peak_rss_mb,
    }


def _delta(outcome: workloads.Outcome) -> dict[str, Any]:
    return diff_snapshots(
        outcome.metrics_before["metrics"], outcome.metrics_after["metrics"])


def _hist(delta: dict[str, Any], name: str) -> dict[str, float]:
    raw = delta["histograms"].get(name)
    return summarize_histogram_raw(raw) if raw else summarize_histogram_raw({})


def client_and_server_layer(
    outcome: workloads.Outcome, stats: dict[str, float], clock: SpeedClock,
) -> dict[str, float]:
    """Per-layer metrics that come from the untraced run itself: the
    client's samples (on the speed clock, like the gated metrics) and
    the server's own ``metrics_pull`` deltas over the busy window (in the
    server's wall-clock time: they are the product's numbers)."""
    busy_window_s = outcome.cpu.end[0] - outcome.cpu.start[0]
    all_ok = [s for s in outcome.load.samples if s.ok]
    attempted = len(outcome.load.samples)
    extras = outcome.extras
    acked = extras.get("acked", 0.0)
    first_send = outcome.load.started
    out: dict[str, float] = {
        "server.cpu_ms_per_request": stats["cpu_ms_per_request"],
        "client.latency_p95_ms": stats["latency_p95_ms"],
        **{
            f"client.{kind}.p{q}_ms": _kind_ms(outcome, clock, kind, q)
            for kind, qs in (("search", (50, 95, 99)), ("trail", (50, 95)),
                             ("visit_batch", (50, 95, 99)))
            for q in qs
        },
        "client.max_ms": max(
            (s.latency * clock.speed(s.start + s.latency) for s in all_ok),
            default=0.0) * 1000.0,
        "client.cpu_s": outcome.load.client_cpu_s,
        "client.error_rate": (attempted - len(all_ok)) / max(1, attempted),
        "client.visits_per_s": (
            acked / clock.elapsed(first_send, extras["last_ack"]) if acked else 0.0),
        "client.mined_s": (
            clock.elapsed(first_send, extras["mined"]) if "mined" in extras else 0.0),
        "storage.disk_bytes_per_visit": (
            extras.get("disk_bytes", 0.0) / acked if acked else 0.0),
        "text.search.recall_at_10": extras.get("recall_at_10", 0.0),
        "bench.machine_speed": stats["machine_speed"],
        "bench.raw_throughput_rps": stats["raw_throughput_rps"],
        "bench.raw_latency_p50_ms": stats["raw_latency_p50_ms"],
        "bench.raw_cpu_ms_per_request": stats["raw_cpu_ms_per_request"],
    }
    delta = _delta(outcome)
    counters = delta["counters"]
    for cache in ("search", "trails", "classify", "related"):
        hits = counters.get(f"cache.hits{{cache={cache}}}", 0.0)
        misses = counters.get(f"cache.misses{{cache={cache}}}", 0.0)
        out[f"cache.{cache}.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["cache.search.evictions"] = counters.get("cache.evictions{cache=search}", 0.0)
    out["cache.search.invalidations"] = counters.get(
        "cache.invalidations{cache=search}", 0.0)
    for servlet, label in (("search", "search"), ("trail", "trail"), ("batch", "visit_batch")):
        out[f"server.servlets.{label}.server_p50_ms"] = _hist(
            delta, f"server.servlets.latency{{servlet={servlet}}}")["p50"] * 1000.0
    busy = 0.0
    tick_max = 0.0
    for daemon in ("crawler", "indexer", "dense", "covisit", "classifier", "themes", "discovery"):
        summary = _hist(delta, f"server.scheduler.run_latency{{daemon={daemon}}}")
        busy += summary["sum"]
        if summary["count"]:
            tick_max = max(tick_max, summary["max"])
        items = counters.get(f"server.scheduler.items{{daemon={daemon}}}", 0.0)
        runs = summary["count"]
        if daemon in ("themes", "discovery"):
            out[f"server.daemons.{daemon}.ms_per_run"] = (
                summary["sum"] * 1000.0 / runs if runs else 0.0)
        elif daemon != "covisit":
            out[f"server.daemons.{daemon}.ms_per_item"] = (
                summary["sum"] * 1000.0 / items if items else 0.0)
        else:
            out["retrieval.covisit.ms_per_visit"] = (
                summary["sum"] * 1000.0 / items if items else 0.0)
    shards = max(1, len(outcome.metrics_after.get("by_shard") or {}))
    out["server.scheduler.tick_max_ms"] = tick_max * 1000.0
    out["server.scheduler.busy_share"] = busy / (busy_window_s * shards) if busy_window_s else 0.0
    # Router hop: what the client waits for beyond the owning shard's
    # own servlet time (cluster only; the shard p50 is the product's).
    trail_server = out["server.servlets.trail.server_p50_ms"]
    out["shard.router.hop_ms"] = (
        max(0.0, out["client.trail.p50_ms"] - trail_server)
        if outcome.metrics_after.get("by_shard") else 0.0)
    return out


# ------------------------------------------------------------------- one run


def _spec(workload: Any, smoke: bool, root: str | None) -> dict[str, Any]:
    return {
        "archive": {"seed": workloads.ARCHIVE_SEED, **workload.sizes(smoke)},
        "topology": workload.topology,
        "sync": workload.sync,
        "root": root,
        "workers": 8,
        "router_workers": 24,
        **workload.spec_extra(),
    }


def run_untraced(
    name: str, seed: int, seconds: float, *, smoke: bool, setups: int,
    keep_data: str | None = None,
) -> dict[str, Any]:
    """Set the server up *setups* times, drive the workload against the
    last one, and shape what was observed.  ``keep_data`` names a
    directory to copy the child's data dir to before it is removed (the
    ladder's recovery measurement reads it)."""
    workload = workloads.WORKLOADS[name]()
    archive = build_workload(seed=workloads.ARCHIVE_SEED, **workload.sizes(smoke))
    workload.plan(archive, seed, seconds)
    data_root = OUT_DIR / "data" / f"{os.getpid()}"
    setup_spans: list[tuple[float, float]] = []
    outcome = None
    child = None
    try:
        with SpeedClock() as clock:
            for attempt in range(setups):
                root = None
                if workload.on_disk:
                    root = str(data_root / f"setup{attempt}")
                    os.makedirs(root, exist_ok=True)
                child = Child(_spec(workload, smoke, root))
                with child:
                    setup_spans.append(child.setup_span)
                    if attempt < setups - 1:
                        child.abort()      # a spare set-up: timing only
                        continue
                    outcome = workload.drive(child, root)
                    if keep_data and root:
                        # Quiescent (mined) but still open: what a crash now
                        # would leave behind for recovery to replay.
                        shutil.copytree(root, keep_data, dirs_exist_ok=True)
    finally:
        shutil.rmtree(data_root, ignore_errors=True)
    assert outcome is not None and child is not None
    attempted = len(outcome.load.samples)
    failed = attempted - sum(1 for s in outcome.load.samples if s.ok)
    outcome.checks["no_failed_requests"] = failed == 0
    stats = window_stats(outcome, clock)
    setup_times = [clock.elapsed(a, b) for a, b in setup_spans]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "archive": {**workload.sizes(smoke), "pages": len(archive.corpus),
                    "events": len(archive.events)},
        "flush_policy": "fsync per commit" if workload.sync else "no fsync (sync=False)",
        "topology": workload.topology,
        "setup_s_each": setup_times,
        "setup_s_each_raw": [b - a for a, b in setup_spans],
        "attempted": attempted,
        "failed": failed,
        "checks": outcome.checks,
        "notes": outcome.notes,
        "samples": {
            kind: sum(1 for s in outcome.load.samples if s.kind == kind)
            for kind in sorted({s.kind for s in outcome.load.samples})
        },
        "end_to_end": end_to_end_metrics(stats, setup_times, child),
        "layer_untraced": client_and_server_layer(outcome, stats, clock),
        "_workload": workload,
        "_archive": archive,
    }


def run_traced(
    name: str, seed: int, seconds: float, *, smoke: bool,
) -> dict[str, Any]:
    """The per-layer run: one untraced pass (client samples and the
    server's own counters) followed by the in-process layer ladder."""
    keep = str(OUT_DIR / "data" / f"{os.getpid()}-recovery")
    try:
        record = run_untraced(
            name, seed, seconds, smoke=smoke, setups=1, keep_data=keep)
        laddered = ladder.run(
            record["_workload"], record["_archive"], seed,
            smoke=smoke,
            recovery_dir=keep if os.path.isdir(keep) else None,
            spans_path=OUT_DIR / f"spans-{name}.jsonl",
        )
    finally:
        shutil.rmtree(keep, ignore_errors=True)
    layer = {**record["layer_untraced"], **laddered["metrics"]}
    headline = laddered["headline_kind"]
    # The ladder's timings are wall-clock, the client's are on the speed
    # clock: put the untraced p50 back on the wall clock to compare.
    untraced_p50 = (layer.get(f"client.{headline}.p50_ms", 0.0)
                    / layer["bench.machine_speed"])
    tcp_p50 = laddered["tcp_p50_ms"]
    layer["bench.trace_delta_pct"] = (
        (tcp_p50 - untraced_p50) / untraced_p50 * 100.0 if untraced_p50 else 0.0)
    record["per_layer"] = {name_: float(layer.get(name_, 0.0)) for name_ in PER_LAYER}
    record["ladder"] = laddered["budget"]
    record["checks"].update(laddered["checks"])
    return record


# --------------------------------------------------------------------- output


def _public(record: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in record.items() if not k.startswith("_")}


def print_metrics(title: str, values: dict[str, float], spec: dict[str, Any]) -> None:
    print(f"## {title}")
    for name, value in values.items():
        unit = spec.get(name, {}).get("unit", "")
        print(f"{name:<44} {value:>14.4f} {unit}")


def contract_line(record: dict[str, Any], trace: int) -> str:
    values = record["per_layer"] if trace else record["end_to_end"]
    spec = PER_LAYER if trace else END_TO_END
    metrics = {
        name: {"value": float(values[name]), "unit": spec[name]["unit"]}
        for name in spec
    }
    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    return json.dumps({
        "correct": all(record["checks"].values()) and not bad,
        "attempted": max(1, int(record["attempted"])),
        "failed": int(record["failed"]),
        "metrics": metrics,
    })


def report_checks(name: str, checks: dict[str, bool]) -> bool:
    """Name every failed check on stderr; true when none failed."""
    for check, passed in checks.items():
        if not passed:
            print(f"bench: CHECK FAILED {name}: {check}", file=sys.stderr)
    return all(checks.values())


def _install_signal_handlers() -> None:
    def bail(signum: int, _frame: Any) -> None:
        raise SystemExit(128 + signum)   # unwinds through Child.__exit__
    signal.signal(signal.SIGTERM, bail)


# ----------------------------------------------------------------------- main


def contract_main(args: argparse.Namespace) -> int:
    leaked = harness.other_children_alive()
    if leaked:
        print(f"bench: WARNING other serve_child.py alive: {leaked}", file=sys.stderr)
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.trace:
        record = run_traced(args.workload, args.seed, args.seconds, smoke=args.smoke)
    else:
        record = run_untraced(
            args.workload, args.seed, args.seconds, smoke=args.smoke, setups=SETUPS)
    record["fingerprint"] = fingerprint(args.seed, args.smoke)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(_public(record), indent=1, default=str))
    if args.trace:
        print_metrics(f"{args.workload} per-layer", record["per_layer"], PER_LAYER)
    else:
        print_metrics(f"{args.workload} end-to-end", record["end_to_end"], END_TO_END)
    report_checks(args.workload, record["checks"])
    line = contract_line(record, args.trace)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


def suite_main(args: argparse.Namespace) -> int:
    leaked = harness.other_children_alive()
    if leaked:
        print(f"bench: refusing to start: serve_child.py already running "
              f"(pids {leaked}); a leaked server wrecks repeatability",
              file=sys.stderr)
        return 2
    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"bench: unknown workloads {unknown}", file=sys.stderr)
        return 2
    seconds = SMOKE_SECONDS if args.smoke else float(args.seconds)
    fp = fingerprint(args.seed, args.smoke)
    if fp["noisy"]:
        print(f"bench: WARNING load average {fp['loadavg_at_start']} > nproc/2; "
              "marking the run noisy", file=sys.stderr)
    results: dict[str, Any] = {
        "label": "smoke" if args.smoke else "full",
        "fingerprint": fp,
        "run_seconds": seconds,
        "repeat": args.repeat,
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = []
        for rep in range(args.repeat):
            record = run_untraced(
                name, args.seed + rep, seconds, smoke=args.smoke, setups=SETUPS)
            runs.append(_public(record))
            print_metrics(f"{name} end-to-end (seed {args.seed + rep})",
                          record["end_to_end"], END_TO_END)
        entry: dict[str, Any] = {"runs": runs, "summary": {}}
        for metric in END_TO_END:
            values = [r["end_to_end"][metric] for r in runs]
            entry["summary"][metric] = {
                "median": statistics.median(values),
                "quartiles": (statistics.quantiles(values, n=4)
                              if len(values) > 1 else [values[0]] * 3),
                "spread": harness.quartile_spread(values),
                "n": len(values),
            }
        if not args.no_trace:
            entry["traced"] = _public(
                run_traced(name, args.seed, seconds, smoke=args.smoke))
            print_metrics(f"{name} per-layer", entry["traced"]["per_layer"], PER_LAYER)
        for record in [*runs, *([entry["traced"]] if "traced" in entry else [])]:
            ok = report_checks(name, record["checks"]) and ok
        results["workloads"][name] = entry
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else OUT_DIR / "results.json"
    out.write_text(json.dumps(results, indent=1, default=str))
    print(f"results written to {out}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="contract form: one workload")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", help="suite form: comma-separated subset")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite form: untraced runs per workload (seed, seed+1, ...)")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny archives, 2 s windows; not a baseline")
    parser.add_argument("--out", help="suite form: results file")
    args = parser.parse_args(argv)
    _install_signal_handlers()
    harness.pin_to_one_cpu()
    if args.workload:
        return contract_main(args)
    return suite_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
