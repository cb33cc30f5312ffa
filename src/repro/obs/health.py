"""Health checks and per-servlet SLOs with multi-window burn rates.

The health layer answers two operator questions the paper's long-lived
multi-user deployment forces:

* **Is the server alive and ready?** — :class:`HealthMonitor` runs named
  boolean checks (storage reachable, scheduler not wedged, versioning lag
  under threshold) and folds them into ``ready``/``degraded``.
* **Is it meeting its promises?** — :class:`ServletSlo` turns the
  *existing* per-servlet latency histograms and error counters into SLO
  status: a p95 latency target plus an error budget evaluated over two
  windows (short + long).  Burn rate is the ratio of the observed error
  rate to the budget: burning at 1.0 exhausts exactly the budget over the
  window; the classic fast-burn alert threshold is 14.4 (budget gone in
  under an hour at a 1% monthly budget).  Requiring *both* windows to
  burn before alarming suppresses blips while still catching sustained
  regressions — the standard multi-window, multi-burn-rate policy.

Everything is computed from instruments that already exist; the SLO layer
adds no per-request cost, only snapshot arithmetic at evaluation time.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from .clock import Clock

#: Burn-rate thresholds for the two evaluation windows.
FAST_BURN = 14.4
SLOW_BURN = 1.0
#: The two evaluation windows, in seconds of the monitor's clock.
SHORT_WINDOW = 300.0
LONG_WINDOW = 3600.0


@dataclass(frozen=True)
class SloPolicy:
    """A servlet's promise: p95 latency target and error budget.

    ``error_budget`` is the tolerated error *fraction* (0.01 = 99% of
    requests succeed); ``target_p95`` is in the latency histogram's unit
    (seconds).
    """

    target_p95: float = 0.1
    error_budget: float = 0.01


DEFAULT_POLICY = SloPolicy()


class ServletSlo:
    """Multi-window burn-rate evaluation over one servlet's instruments.

    Each :meth:`evaluate` call snapshots ``(now, request_count,
    error_count)`` into a pruned deque and derives the error rate over the
    short and long windows by differencing against the oldest snapshot
    inside each window.  Status:

    * ``breach`` — error budget burning at ≥ :data:`FAST_BURN` in *both*
      windows, or the long-window p95 exceeds the latency target.
    * ``warn`` — burning at ≥ :data:`SLOW_BURN` in both windows.
    * ``ok`` — otherwise.
    """

    def __init__(
        self,
        name: str,
        policy: SloPolicy,
        latency: Any,
        errors: Any,
        *,
        clock: Clock = time.time,
    ) -> None:
        self.name = name
        self.policy = policy
        self.latency = latency   # Histogram: .count, .percentile()
        self.errors = errors     # Counter: .value
        self.clock = clock
        self._snapshots: deque[tuple[float, int, float]] = deque()

    def _window_rate(self, now: float, window: float) -> tuple[int, float]:
        """(requests, error_rate) over the trailing *window* seconds."""
        base: tuple[float, int, float] | None = None
        for snap in self._snapshots:
            if snap[0] >= now - window:
                base = snap
                break
        if base is None:
            base = (now, 0, 0.0)
        requests = self.latency.count - base[1]
        errs = self.errors.value - base[2]
        if requests <= 0:
            return 0, 0.0
        return requests, errs / requests

    def evaluate(self, now: float | None = None) -> dict[str, Any]:
        """Snapshot current totals and report SLO status as a dict."""
        if now is None:
            now = self.clock()
        requests_short, rate_short = self._window_rate(now, SHORT_WINDOW)
        requests_long, rate_long = self._window_rate(now, LONG_WINDOW)
        self._snapshots.append((now, self.latency.count, self.errors.value))
        while self._snapshots and self._snapshots[0][0] < now - LONG_WINDOW:
            self._snapshots.popleft()

        budget = self.policy.error_budget
        burn_short = rate_short / budget if budget > 0 else float("inf") * rate_short if rate_short else 0.0
        burn_long = rate_long / budget if budget > 0 else float("inf") * rate_long if rate_long else 0.0
        p95 = self.latency.percentile(0.95)
        latency_ok = p95 <= self.policy.target_p95
        if (burn_short >= FAST_BURN and burn_long >= FAST_BURN) or not latency_ok:
            status = "breach"
        elif burn_short >= SLOW_BURN and burn_long >= SLOW_BURN:
            status = "warn"
        else:
            status = "ok"
        return {
            "status": status,
            "p95": p95,
            "target_p95": self.policy.target_p95,
            "latency_ok": latency_ok,
            "error_budget": budget,
            "requests": self.latency.count,
            "errors": self.errors.value,
            "error_rate_short": rate_short,
            "error_rate_long": rate_long,
            "burn_short": burn_short,
            "burn_long": burn_long,
        }


CheckFn = Callable[[], tuple[bool, Any]]


class HealthMonitor:
    """Named liveness/readiness checks plus the SLO roster.

    A check is a callable returning ``(ok, detail)``; a check that raises
    counts as failed with the exception text as detail (an unreachable
    store must degrade health, not crash the health endpoint).  The
    monitor is ``ready`` when every check passes and no SLO is in
    ``breach``; it is always ``live`` if it can answer at all.

    A servlet is held to :data:`DEFAULT_POLICY` unless ``policies`` names
    another for it before its SLO is first bound.
    """

    def __init__(self, *, clock: Clock = time.time) -> None:
        self.clock = clock
        self.policies: dict[str, SloPolicy] = {}
        self._checks: dict[str, CheckFn] = {}
        self._slos: dict[str, ServletSlo] = {}

    def add_check(self, name: str, fn: CheckFn) -> None:
        if name in self._checks:
            raise ValueError(f"health check {name!r} already registered")
        self._checks[name] = fn

    def slo(self, name: str, latency: Any, errors: Any) -> ServletSlo:
        """Get-or-create the SLO tracker for servlet *name*."""
        got = self._slos.get(name)
        if got is None:
            got = ServletSlo(
                name,
                self.policies.get(name, DEFAULT_POLICY),
                latency,
                errors,
                clock=self.clock,
            )
            self._slos[name] = got
        return got

    def report(self) -> dict[str, Any]:
        """Run every check, evaluate every SLO, fold into one payload."""
        checks: dict[str, dict[str, Any]] = {}
        ready = True
        for name in sorted(self._checks):
            try:
                ok, detail = self._checks[name]()
            except Exception as exc:  # noqa: BLE001 - failing check ≠ dead endpoint
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            checks[name] = {"ok": bool(ok), "detail": detail}
            ready = ready and bool(ok)
        slos = {name: slo.evaluate() for name, slo in sorted(self._slos.items())}
        if any(s["status"] == "breach" for s in slos.values()):
            ready = False
        return {
            "live": True,
            "health": "ready" if ready else "degraded",
            "checks": checks,
            "slos": slos,
        }
