"""Smoke test for the benchmark harness.

Not part of tier-1 (``testpaths`` stays ``tests``); run it explicitly::

    python3 -m pytest bench/test_smoke.py -q

It runs every workload in ``--smoke`` mode (tiny archives, 2 s windows),
once through the suite form and once through the driver's contract form,
and asserts the plumbing, not the numbers: every metric named in
``BENCHMARK.json`` comes out finite, no server child survives, the span
log parses with every parent resolvable, and smoke results are refused as
a baseline.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


def _run(*args: str, timeout: float = 600.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def _finite(values: dict[str, float], names: list[str]) -> None:
    assert sorted(values) == sorted(names)
    for name, value in values.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


def test_suite_smoke() -> None:
    out = BENCH / "out" / "smoke-results.json"
    done = _run("--smoke", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    assert harness.other_children_alive() == []

    results = json.loads(out.read_text())
    assert results["label"] == "smoke" and results["fingerprint"]["smoke"]
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layer = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(results["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for name, entry in results["workloads"].items():
        for run in entry["runs"]:
            _finite(run["end_to_end"], e2e)
            assert all(v > 0 for v in run["end_to_end"].values()), run["end_to_end"]
            assert all(run["checks"].values()), (name, run["checks"])
        _finite(entry["traced"]["per_layer"], layer)

        spans = [
            json.loads(line)
            for line in (BENCH / "out" / f"spans-{name}.jsonl").read_text().splitlines()
        ]
        assert spans, name
        ids = {span["id"] for span in spans}
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["parent"] is None or span["parent"] in ids, span

    refused = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert refused.returncode != 0 and "smoke" in refused.stderr


def test_contract_form_smoke() -> None:
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = _run("--workload", "read_hot", "--seed", "9", "--seconds", "2",
                    "--trace", str(trace), "--smoke")
        assert done.returncode == 0, done.stderr[-2000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
        assert sorted(last["metrics"]) == sorted(m["name"] for m in spec)
        for m in spec:
            got = last["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    assert harness.other_children_alive() == []
