"""Metrics: counters, gauges, and fixed-bucket latency histograms.

The registry is the single place the server pipeline records what it is
doing: how many requests each servlet served, how long daemon runs take,
how far each versioning consumer lags the producer.  Design constraints,
in order:

* **Deterministic and dependency-free.**  Percentiles come from fixed
  bucket boundaries (no sampling, no randomness); time comes from an
  injectable clock so tests measure exact values.
* **Cheap when disabled, cheap enough when enabled.**  A registry built
  with ``enabled=False`` hands out shared no-op instruments, so wired
  code pays one attribute call per event.  Enabled instruments are plain
  attribute updates; callers on hot paths cache instrument handles at
  construction time instead of re-looking them up per event.
* **Label support without cardinality surprises.**  An instrument is
  identified by ``(name, sorted labels)``; the naming convention is
  ``layer.component.metric`` (e.g. ``server.servlets.latency``) with
  labels for the variable part (``servlet="visit"``).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections.abc import Callable
from typing import Any

from .clock import Clock

LabelItems = tuple[tuple[str, str], ...]

# 1-2.5-5 ladder from 1 microsecond to 10 seconds: fine enough to separate
# an in-memory dict hit from a WAL fsync, coarse enough to stay tiny.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for base in (1.0, 2.5, 5.0)
) + (10.0,)


def render_name(name: str, labels: LabelItems) -> str:
    """Canonical display form: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _interpolate_percentile(
    q: float,
    buckets: tuple[float, ...],
    counts: list[int],
    count: int,
    mn: float,
    mx: float,
) -> float:
    """Percentile from bucket counts; shared by live and merged histograms.

    Interpolates linearly inside the winning bucket and clamps to the
    observed [mn, mx] range so a sparse bucket cannot report a value no
    sample reached.  The overflow bucket (index ``len(buckets)``) maps
    to ``mx``.
    """
    rank = q * count
    cumulative = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        if cumulative + c >= rank:
            if i == len(buckets):      # overflow bucket
                return mx
            lo = buckets[i - 1] if i > 0 else min(mn, buckets[i])
            hi = buckets[i]
            frac = (rank - cumulative) / c
            return max(mn, min(lo + (hi - lo) * frac, mx))
        cumulative += c
    return mx


class Counter:
    """Monotonically increasing count of events.

    Thread-safe: ``inc`` is a read-modify-write, so concurrent servlet
    workers serialize on a tiny per-instrument lock (obs level — the
    innermost in :data:`repro.locks.LOCK_ORDER`).
    """

    __slots__ = ("name", "labels", "value", "_obs_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._obs_lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._obs_lock:
            self.value += n


class Pulled:
    """A counter or gauge whose value is *pulled* from a callable at
    read time.

    The cheapest possible instrumentation for very hot paths: the
    component bumps a plain Python int (a count) or keeps its own level
    (cache entries, versioning lag) and registers the accessor once;
    nothing happens per event.  Every gauge is one of these.
    """

    __slots__ = ("name", "labels", "fn")

    def __init__(self, name: str, labels: LabelItems, fn: Callable[[], float]) -> None:
        self.name = name
        self.labels = labels
        self.fn = fn

    @property
    def value(self) -> float:
        return float(self.fn())


class Histogram:
    """Fixed-bucket histogram with percentile summaries.

    ``buckets`` are ascending upper bounds; an implicit overflow bucket
    catches everything above the last bound.  Percentiles interpolate
    linearly inside the winning bucket, which keeps them deterministic
    functions of the recorded distribution.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count",
                 "min", "max", "_obs_lock")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be ascending and non-empty")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")
        self._obs_lock = threading.Lock()

    def observe(self, value: float) -> None:
        # One lock keeps counts/sum/count/min/max mutually consistent
        # under concurrent workers (summary() reads them together).
        with self._obs_lock:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def _state(self) -> tuple[list[int], float, int, float, float]:
        """A mutually consistent copy of the mutable fields."""
        with self._obs_lock:
            return list(self.counts), self.sum, self.count, self.min, self.max

    def _percentile(
        self, q: float,
        counts: list[int], count: int, mn: float, mx: float,
    ) -> float:
        return _interpolate_percentile(q, self.buckets, counts, count, mn, mx)

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], from the bucket boundaries."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        counts, _total, count, mn, mx = self._state()
        if count == 0:
            return 0.0
        return self._percentile(q, counts, count, mn, mx)

    def summary(self) -> dict[str, float]:
        counts, total, count, mn, mx = self._state()
        if count == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": count,
            "sum": total,
            "mean": total / count,
            "p50": self._percentile(0.50, counts, count, mn, mx),
            "p95": self._percentile(0.95, counts, count, mn, mx),
            "p99": self._percentile(0.99, counts, count, mn, mx),
            "min": mn,
            "max": mx,
        }

    def raw(self) -> dict[str, Any]:
        """Mergeable JSON-safe state: bucket counts, not summaries.

        ``min``/``max`` are ``None`` when empty (the infinities are not
        JSON-serializable, and this payload crosses the shard wire).
        """
        counts, total, count, mn, mx = self._state()
        return {
            "buckets": list(self.buckets),
            "counts": counts,
            "sum": total,
            "count": count,
            "min": mn if count else None,
            "max": mx if count else None,
        }


# -- mergeable snapshots ---------------------------------------------------------
#
# Cluster aggregation works on *raw* snapshots: per-histogram bucket
# counts rather than precomputed summaries.  Because every registry in
# the fleet shares the same fixed bucket boundaries, merging is an
# element-wise count sum — the merged percentiles are exactly what a
# single registry fed the union of observations would report, not an
# average of per-shard percentiles.


def merge_histogram_raw(
    a: dict[str, Any] | None, b: dict[str, Any],
) -> dict[str, Any]:
    """Bucket-wise merge of two :meth:`Histogram.raw` payloads."""
    if a is None:
        return {
            "buckets": list(b["buckets"]),
            "counts": list(b["counts"]),
            "sum": float(b["sum"]),
            "count": int(b["count"]),
            "min": b.get("min"),
            "max": b.get("max"),
        }
    if list(a["buckets"]) != list(b["buckets"]):
        raise ValueError("cannot merge histograms with different buckets")
    mins = [m for m in (a.get("min"), b.get("min")) if m is not None]
    maxs = [m for m in (a.get("max"), b.get("max")) if m is not None]
    return {
        "buckets": list(a["buckets"]),
        "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
        "sum": float(a["sum"]) + float(b["sum"]),
        "count": int(a["count"]) + int(b["count"]),
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
    }


def summarize_histogram_raw(raw: dict[str, Any]) -> dict[str, float]:
    """:meth:`Histogram.summary` computed from a raw (merged) payload.

    Tolerates absent ``min``/``max`` (a diffed payload cannot know them):
    the fallback bounds come from the populated buckets, so percentiles
    stay inside the recorded distribution.
    """
    count = int(raw.get("count", 0))
    if count <= 0:
        return {"count": 0, "sum": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "min": 0.0, "max": 0.0}
    buckets = tuple(float(b) for b in raw["buckets"])
    counts = [int(c) for c in raw["counts"]]
    total = float(raw.get("sum", 0.0))
    mn = raw.get("min")
    mx = raw.get("max")
    if mn is None:
        lowest = next((i for i, c in enumerate(counts) if c), 0)
        mn = 0.0 if lowest == 0 else buckets[lowest - 1]
    if mx is None:
        highest = next(
            (i for i in range(len(counts) - 1, -1, -1) if counts[i]), 0)
        mx = buckets[min(highest, len(buckets) - 1)]
    mn, mx = float(mn), float(mx)
    return {
        "count": count,
        "sum": total,
        "mean": total / count,
        "p50": _interpolate_percentile(0.50, buckets, counts, count, mn, mx),
        "p95": _interpolate_percentile(0.95, buckets, counts, count, mn, mx),
        "p99": _interpolate_percentile(0.99, buckets, counts, count, mn, mx),
        "min": mn,
        "max": mx,
    }


def merge_snapshots(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge raw snapshots: counters/gauges sum, histograms bucket-wise.

    Instruments absent on some shards merge what exists; gauges sum
    because cluster levels (backlogs, cache entries) are additive across
    a user-partitioned fleet.
    """
    out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        for section in ("counters", "gauges"):
            merged = out[section]
            for name, value in (snap.get(section) or {}).items():
                merged[name] = merged.get(name, 0.0) + float(value)
        histograms = out["histograms"]
        for name, raw in (snap.get("histograms") or {}).items():
            histograms[name] = merge_histogram_raw(histograms.get(name), raw)
    return out


def diff_snapshots(
    before: dict[str, Any], after: dict[str, Any],
) -> dict[str, Any]:
    """What happened *between* two raw snapshots of the same registry.

    Counters and histogram bucket counts subtract (clamped at zero —
    a worker restart resets instruments and must not yield negative
    deltas); gauges are levels, so the ``after`` value stands.  The
    delta's true ``min``/``max`` are unknowable, so they are ``None``
    and :func:`summarize_histogram_raw` falls back to bucket bounds.
    """
    out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    before_counters = before.get("counters") or {}
    for name, value in (after.get("counters") or {}).items():
        out["counters"][name] = max(
            0.0, float(value) - float(before_counters.get(name, 0.0)))
    out["gauges"] = dict(after.get("gauges") or {})
    before_hists = before.get("histograms") or {}
    for name, raw in (after.get("histograms") or {}).items():
        prior = before_hists.get(name)
        if prior is None or list(prior["buckets"]) != list(raw["buckets"]):
            out["histograms"][name] = merge_histogram_raw(None, raw)
            continue
        counts = [max(0, int(x) - int(y))
                  for x, y in zip(raw["counts"], prior["counts"])]
        out["histograms"][name] = {
            "buckets": list(raw["buckets"]),
            "counts": counts,
            "sum": max(0.0, float(raw["sum"]) - float(prior["sum"])),
            "count": sum(counts),
            "min": None,
            "max": None,
        }
    return out


# -- disabled instruments -------------------------------------------------------

class _NullCounter:
    __slots__ = ()
    name = "null"
    labels: LabelItems = ()
    value = 0.0

    def inc(self, n: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    labels: LabelItems = ()
    buckets: tuple[float, ...] = ()
    sum = 0.0
    count = 0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict[str, float]:
        return {"count": 0, "sum": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "min": 0.0, "max": 0.0}

    def raw(self) -> dict[str, Any]:
        return {"buckets": [], "counts": [], "sum": 0.0, "count": 0,
                "min": None, "max": None}


_NULL_COUNTER = _NullCounter()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """The instrument factory and snapshot point for one server.

    Parameters
    ----------
    enabled:
        ``False`` makes every instrument a shared no-op — the opt-out for
        deployments that want zero measurement cost.
    clock:
        Time source shared by everything that measures into this
        registry (servlet latency, the log hub, the health engine);
        injectable so tests measure deterministic durations.
    """

    def __init__(self, *, enabled: bool = True, clock: Clock = time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self._counters: dict[tuple[str, LabelItems], Counter | Pulled] = {}
        self._gauges: dict[tuple[str, LabelItems], Pulled] = {}
        self._histograms: dict[tuple[str, LabelItems], Histogram] = {}
        # Guards instrument creation (get-or-create) only; per-event
        # updates use the instruments' own locks.
        self._obs_lock = threading.Lock()

    # -- instrument factories ----------------------------------------------

    @staticmethod
    def _key(name: str, labels: dict[str, str]) -> tuple[str, LabelItems]:
        if not labels:
            return name, ()
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def counter(self, name: str, **labels: str) -> Counter | _NullCounter:
        if not self.enabled:
            return _NULL_COUNTER
        key = self._key(name, labels)
        got = self._counters.get(key)   # lock-free fast path (GIL-safe read)
        if got is None:
            with self._obs_lock:
                got = self._counters.get(key)
                if got is None:
                    got = self._counters[key] = Counter(key[0], key[1])
        return got

    def counter_func(
        self, name: str, fn: Callable[[], float], **labels: str,
    ) -> None:
        """Register a pull-model counter backed by *fn* (see
        :class:`Pulled`).  Re-registering the same name replaces the
        accessor, so components can re-register on reconstruction."""
        self._pull(self._counters, name, fn, labels)

    def gauge_func(
        self, name: str, fn: Callable[[], float], **labels: str,
    ) -> None:
        """Register a gauge backed by *fn*, as :meth:`counter_func` does
        a counter; every gauge is pulled."""
        self._pull(self._gauges, name, fn, labels)

    def _pull(
        self, table: dict[tuple[str, LabelItems], Any], name: str,
        fn: Callable[[], float], labels: dict[str, str],
    ) -> None:
        if self.enabled:
            key = self._key(name, labels)
            with self._obs_lock:
                table[key] = Pulled(key[0], key[1], fn)

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram | _NullHistogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        key = self._key(name, labels)
        got = self._histograms.get(key)
        if got is None:
            with self._obs_lock:
                got = self._histograms.get(key)
                if got is None:
                    got = self._histograms[key] = Histogram(
                        key[0], key[1], buckets)
        return got

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time view of every instrument, JSON-serializable."""
        return {
            "counters": {
                render_name(c.name, c.labels): c.value
                for c in self._counters.values()
            },
            "gauges": {
                render_name(g.name, g.labels): g.value
                for g in self._gauges.values()
            },
            "histograms": {
                render_name(h.name, h.labels): h.summary()
                for h in self._histograms.values()
            },
        }

    def raw_snapshot(self) -> dict[str, Any]:
        """Mergeable view: histogram bucket counts instead of summaries.

        This is what the ``metrics_pull`` servlet ships and what
        :func:`merge_snapshots` consumes to build exact cluster-level
        percentiles.  Instrument handles are copied under the creation
        lock; values are read afterwards because pull-model instruments
        may take component locks that rank above ``obs``.
        """
        with self._obs_lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {
                render_name(c.name, c.labels): c.value for c in counters
            },
            "gauges": {
                render_name(g.name, g.labels): g.value for g in gauges
            },
            "histograms": {
                render_name(h.name, h.labels): h.raw() for h in histograms
            },
        }

    def counter_value(self, name: str, **labels: str) -> float:
        key = self._key(name, labels)
        got = self._counters.get(key)
        return got.value if got is not None else 0.0

    def gauge_value(self, name: str, **labels: str) -> float:
        key = self._key(name, labels)
        got = self._gauges.get(key)
        return got.value if got is not None else 0.0


_NULL_REGISTRY = MetricsRegistry(enabled=False)


def null_registry() -> MetricsRegistry:
    """The shared disabled registry components default to when unwired."""
    return _NULL_REGISTRY
