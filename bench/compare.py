#!/usr/bin/env python3
"""Compare two results files written by ``bench/run.py`` (suite form).

    python3 bench/compare.py A.json B.json

Prints one row per workload x end-to-end metric: both medians, the ratio
B/A **with its base** (A's median), each side's quartile spread, and a
verdict against the metric's bound in ``BENCHMARK.json``:

``better`` / ``worse``   B's median differs from A's by more than the
                         bound, in the metric's good / bad direction;
``same``                 within the bound;
``unresolved``           a side's run-to-run spread is wider than the
                         bound, so the difference cannot be judged.

Smoke results are refused: they are not a baseline.  Exit status 1 if
any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> dict:
    results = json.loads(Path(path).read_text())
    if results.get("label") != "full" or results.get("fingerprint", {}).get("smoke"):
        raise SystemExit(f"compare: {path} is a smoke run, not a baseline")
    return results


def verdict(metric: dict, a: dict, b: dict) -> tuple[str, float]:
    base = a["median"]
    ratio = b["median"] / base if base else float("nan")
    worse_by = (ratio - 1.0) if metric["better"] == "lower" else (1.0 - ratio)
    bound = metric["bound"]
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved", ratio
    if worse_by > bound:
        return "worse", ratio
    if worse_by < -bound:
        return "better", ratio
    return "same", ratio


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    for side, results in (("A", a), ("B", b)):
        fp = results["fingerprint"]
        print(f"{side}: commit {fp.get('git_commit')} dirty={fp.get('git_dirty')} "
              f"seed {fp.get('seed')} x{results.get('repeat')} "
              f"nproc {fp.get('nproc')} load {fp.get('loadavg_at_start')}"
              f"{' NOISY' if fp.get('noisy') else ''}")
    header = (f"{'workload':<12} {'metric':<20} {'A median':>12} {'B median':>12} "
              f"{'B/A':>7} {'base (A)':>14} {'spread A/B':>13} {'bound':>6}  verdict")
    print(header)
    bad = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in SPEC["end_to_end"]:
            sa = a["workloads"][name]["summary"][metric["name"]]
            sb = b["workloads"][name]["summary"][metric["name"]]
            word, ratio = verdict(metric, sa, sb)
            bad += word in ("worse", "unresolved")
            print(f"{name:<12} {metric['name']:<20} {sa['median']:>12.4f} "
                  f"{sb['median']:>12.4f} {ratio:>7.3f} "
                  f"{sa['median']:>10.4f} {metric['unit']:<3} "
                  f"{sa['spread']:>6.3f}/{sb['spread']:<6.3f} {metric['bound']:>6.2f}  {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
