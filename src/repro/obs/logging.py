"""Structured JSON-lines logging with automatic trace correlation.

One :class:`LogHub` per server holds a bounded ring buffer of structured
records (plain dicts, one JSON object per line when rendered); components
log through cheap :class:`Logger` handles bound to a component name::

    log = hub.logger("scheduler")
    log.warn("daemon_quarantined", daemon="indexer", failures=3)

Every record automatically carries the ambient ``trace_id``/``span_id``
(from the tracing contextvar — see :func:`repro.obs.tracing.
current_traceparent`), so a log line emitted anywhere under a request's
span tree is attributable to that request without any explicit plumbing.

The ring buffer is queryable (``hub.records(...)``) from the ``stats``
servlet and ``repro stats --logs``; ``hub.attach(sink)`` additionally
streams each record to a callable (e.g. for writing JSONL to a file).
A hub built with ``enabled=False`` makes every log call a constant-time
no-op, mirroring ``null_registry()``/``null_tracer()``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from collections.abc import Callable
from typing import Any

from .clock import Clock
from .tracing import current_context

#: Severity order; records below :attr:`LogHub.MIN_LEVEL` are dropped.
LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warn": 30, "error": 40}

Sink = Callable[[dict[str, Any]], None]


class LogHub:
    """Bounded in-memory store and fan-out point for structured records."""

    #: The least severe level a hub keeps.
    MIN_LEVEL = "debug"

    def __init__(
        self,
        *,
        capacity: int = 2048,
        clock: Clock = time.time,
        enabled: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.enabled = enabled
        self.clock = clock
        self.capacity = capacity
        self.emitted = 0
        self._records: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._sinks: list[Sink] = []
        self._loggers: dict[str, Logger] = {}
        # Innermost (obs-level) lock: guards the emitted counter and the
        # logger cache; the ring itself is an atomic deque append.
        self._obs_lock = threading.Lock()

    def logger(self, component: str) -> "Logger":
        """A (cached) handle that stamps *component* on every record."""
        got = self._loggers.get(component)
        if got is None:
            with self._obs_lock:
                got = self._loggers.get(component)
                if got is None:
                    got = Logger(self, component)
                    self._loggers[component] = got
        return got

    def log(self, level: str, component: str, event: str, /, **fields: Any) -> None:
        """Append one structured record; trace ids injected automatically.

        Reserved keys (``ts``/``level``/``component``/``event``/``thread``
        and the trace ids) win over caller-supplied fields of the same
        name, so a record's envelope can always be trusted.  Records are
        tagged with the emitting thread's ``threading.get_ident()`` so
        interleaved worker logs stay attributable.
        """
        if not self.enabled or LEVELS[level] < LEVELS[self.MIN_LEVEL]:
            return
        record: dict[str, Any] = {
            **fields,
            "ts": self.clock(),
            "level": level,
            "component": component,
            "event": event,
            "thread": threading.get_ident(),
        }
        ctx = current_context()
        if ctx is not None:
            record["trace_id"] = ctx.trace_id
            record["span_id"] = ctx.span_id
        with self._obs_lock:
            self.emitted += 1
        self._records.append(record)   # deque append is atomic
        for sink in list(self._sinks):
            sink(record)

    def attach(self, sink: Sink) -> None:
        """Stream every future record to *sink* (in addition to the ring)."""
        self._sinks.append(sink)

    def detach(self, sink: Sink) -> None:
        self._sinks.remove(sink)

    def records(
        self,
        *,
        level: str | None = None,
        component: str | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Buffered records, oldest first, optionally filtered.

        ``level`` is a *floor* (``level="warn"`` returns warn+error);
        ``limit`` keeps the **newest** N after filtering.
        """
        floor = LEVELS[level] if level is not None else 0
        out = [
            r for r in self._records
            if LEVELS[r["level"]] >= floor
            and (component is None or r["component"] == component)
        ]
        if limit is not None and len(out) > limit:
            out = out[-limit:]
        return out

    def render_jsonl(self, **filters: Any) -> str:
        """The (filtered) buffer as JSON lines, one record per line."""
        return "\n".join(
            json.dumps(r, sort_keys=True, default=str)
            for r in self.records(**filters)
        )

    def to_payload(self, *, limit: int | None = None, **filters: Any) -> list[dict[str, Any]]:
        """Records as JSON-safe dicts for the ``stats`` servlet."""
        return [dict(r) for r in self.records(limit=limit, **filters)]

    def clear(self) -> None:
        self._records.clear()


class Logger:
    """Component-bound logging handle; one attribute hop per call."""

    __slots__ = ("hub", "component")

    def __init__(self, hub: LogHub, component: str) -> None:
        self.hub = hub
        self.component = component

    def debug(self, event: str, /, **fields: Any) -> None:
        self.hub.log("debug", self.component, event, **fields)

    def info(self, event: str, /, **fields: Any) -> None:
        self.hub.log("info", self.component, event, **fields)

    def warn(self, event: str, /, **fields: Any) -> None:
        self.hub.log("warn", self.component, event, **fields)

    def error(self, event: str, /, **fields: Any) -> None:
        self.hub.log("error", self.component, event, **fields)


_NULL_HUB = LogHub(enabled=False, capacity=1)


def null_log_hub() -> LogHub:
    """The shared disabled hub components default to when unwired."""
    return _NULL_HUB


def null_logger(component: str = "null") -> Logger:
    """A no-op logger (backed by the shared disabled hub)."""
    return Logger(_NULL_HUB, component)
