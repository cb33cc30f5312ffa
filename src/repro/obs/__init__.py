"""repro.obs — the observability subsystem: metrics, tracing, logging.

The paper's server promises "guaranteed immediate processing" for UI
events while mining daemons run asynchronously (§3); this package is how
the reproduction *observes* both halves of that promise.  One
:class:`MetricsRegistry`, one :class:`Tracer`, and one :class:`LogHub`
per server, threaded through every layer (servlets, scheduler, daemons,
storage, versioning), read back through the ``stats``/``health``
servlets, ``metrics_pull`` and the ``repro top``/``repro stats``
dashboard (:mod:`repro.obs.top`).

Metric naming convention: ``layer.component.metric`` with labels for the
variable part, e.g. ``server.servlets.latency{servlet=visit}`` or
``storage.versioning.lag{consumer=indexer}``.

Cross-process causality: spans carry a W3C-traceparent-style
:class:`TraceContext` (``trace_id``/``span_id``/sampled flag) which the
client stamps onto wire requests and the server restores, so a daemon's
index update links back to the applet click that caused it.  Structured
log records (:mod:`repro.obs.logging`) pick up the ambient trace ids
automatically; :class:`HealthMonitor` (:mod:`repro.obs.health`) folds
checks and per-servlet SLO burn rates into ready/degraded.
"""

from .clock import Clock, ManualClock
from .health import (
    DEFAULT_POLICY,
    FAST_BURN,
    SLOW_BURN,
    HealthMonitor,
    ServletSlo,
    SloPolicy,
)
from .logging import LEVELS, Logger, LogHub, null_log_hub, null_logger
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    merge_histogram_raw,
    merge_snapshots,
    null_registry,
    render_name,
    summarize_histogram_raw,
)
from .shipping import (
    LogShipper,
    build_span_tree,
    read_shipped_records,
    render_span_tree,
    shard_log_paths,
)
from .top import render_dashboard, run_top
from .tracing import (
    NULL_SPAN,
    IdSource,
    Span,
    TraceContext,
    TraceParseError,
    Tracer,
    current_context,
    current_traceparent,
    format_traceparent,
    null_tracer,
    parse_traceparent,
)

__all__ = [
    "Clock",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_POLICY",
    "FAST_BURN",
    "HealthMonitor",
    "Histogram",
    "IdSource",
    "LEVELS",
    "LogHub",
    "LogShipper",
    "Logger",
    "ManualClock",
    "MetricsRegistry",
    "NULL_SPAN",
    "SLOW_BURN",
    "ServletSlo",
    "SloPolicy",
    "Span",
    "TraceContext",
    "TraceParseError",
    "Tracer",
    "build_span_tree",
    "current_context",
    "current_traceparent",
    "diff_snapshots",
    "format_traceparent",
    "merge_histogram_raw",
    "merge_snapshots",
    "null_log_hub",
    "null_logger",
    "null_registry",
    "null_tracer",
    "parse_traceparent",
    "read_shipped_records",
    "render_dashboard",
    "render_name",
    "render_span_tree",
    "run_top",
    "shard_log_paths",
    "summarize_histogram_raw",
]
