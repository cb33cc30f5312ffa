"""Span-based tracing with nesting, attributes, and wire propagation.

Usage::

    with tracer.span("servlet.archive", user="u1") as span:
        ...
        span.set("pages", 3)

Spans nest: a span opened while another is active records it as parent,
so one servlet dispatch that triggers repository writes shows up as a
small tree.  Finished spans land in a ring buffer (``capacity`` most
recent), which the ``stats`` servlet reads; the buffer is
bounded so tracing can stay on in long-lived servers.

Cross-process causality uses a W3C-traceparent-style context::

    00-<32 hex trace_id>-<16 hex span_id>-<2 hex flags>

:func:`format_traceparent` serializes the active span's
:class:`TraceContext`; the receiving side parses it with
:func:`parse_traceparent` and opens its span with ``parent=ctx``, which
joins the remote trace instead of starting a fresh one.  A remote parent
whose sampled flag is set forces recording, so a trace sampled at the
client stays complete across the server and its daemons.

While a span is active its context is also published in a contextvar
(:func:`current_traceparent`), which is how structured logging and WAL
records pick up trace ids without any explicit plumbing.

A tracer built with ``enabled=False`` hands out one shared no-op span,
making ``tracer.span(...)`` a cheap constant-time call on opted-out
deployments.
"""

from __future__ import annotations

import itertools
import random
import re
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any

from .clock import Clock

#: Ambient trace context for the *currently executing* span, shared by all
#: tracers in the process.  Logging and storage read it; only
#: :meth:`Span.__enter__` / :meth:`Span.__exit__` write it.
_ACTIVE_CONTEXT: ContextVar["TraceContext | None"] = ContextVar(
    "repro_obs_trace_context", default=None,
)


class TraceParseError(ValueError):
    """A traceparent string that does not follow the wire format."""


class TraceContext:
    """The propagatable identity of a span: what crosses the wire.

    A hand-rolled value class rather than a frozen dataclass: one is
    allocated per span (and per routed hop), and the frozen-dataclass
    ``object.__setattr__`` construction path costs several times a
    plain ``__init__`` on that hot path.  Treat instances as immutable.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(
        self, trace_id: str, span_id: str, sampled: bool = True,
    ) -> None:
        self.trace_id = trace_id   # 32 lowercase hex chars, not all zero
        self.span_id = span_id     # 16 lowercase hex chars, not all zero
        self.sampled = sampled

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return (
            self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.sampled == other.sampled
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.sampled))

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, sampled={self.sampled!r})"
        )

    def to_traceparent(self) -> str:
        return format_traceparent(self)


def format_traceparent(ctx: TraceContext) -> str:
    """Serialize *ctx* as ``00-<trace_id>-<span_id>-<flags>``."""
    return f"00-{ctx.trace_id}-{ctx.span_id}-{'01' if ctx.sampled else '00'}"


def _require_hex(field: str, value: str, width: int) -> str:
    if len(value) != width:
        raise TraceParseError(
            f"traceparent {field} must be {width} hex chars, got {value!r}")
    try:
        as_int = int(value, 16)
    except ValueError:
        raise TraceParseError(
            f"traceparent {field} is not hex: {value!r}") from None
    if value != value.lower():
        raise TraceParseError(
            f"traceparent {field} must be lowercase hex: {value!r}")
    if as_int == 0 and field in ("trace_id", "span_id"):
        raise TraceParseError(f"traceparent {field} must not be all-zero")
    return value


# Well-formed traceparent fast path: one C-level match instead of four
# per-field validations.  Anything it rejects falls through to the slow
# path purely to produce the precise per-field error message.
_TRACEPARENT_RE = re.compile(
    r"(?!ff)[0-9a-f]{2}-(?!0{32}-)([0-9a-f]{32})-(?!0{16}-)([0-9a-f]{16})"
    r"-[0-9a-f]{2}\Z"
)


def parse_traceparent(value: Any) -> TraceContext:
    """Parse a traceparent header value into a :class:`TraceContext`.

    Raises :class:`TraceParseError` (a ``ValueError``, so the server's
    error mapping turns it into a typed ``bad_request``) on anything
    malformed: wrong type, wrong field count, wrong widths, non-hex,
    all-zero ids, or the forbidden version ``ff``.
    """
    if not isinstance(value, str):
        raise TraceParseError(
            f"traceparent must be a string, got {type(value).__name__}")
    if _TRACEPARENT_RE.match(value):
        return TraceContext(
            value[3:35], value[36:52], sampled=bool(int(value[53:], 16) & 1),
        )
    parts = value.split("-")
    if len(parts) != 4:
        raise TraceParseError(
            f"traceparent needs 4 '-'-separated fields, got {len(parts)}")
    version, trace_id, span_id, flags = parts
    _require_hex("version", version, 2)
    if version == "ff":
        raise TraceParseError("traceparent version 'ff' is forbidden")
    _require_hex("trace_id", trace_id, 32)
    _require_hex("span_id", span_id, 16)
    _require_hex("flags", flags, 2)
    return TraceContext(trace_id, span_id, sampled=bool(int(flags, 16) & 1))


def current_traceparent() -> str | None:
    """The ambient trace context as a traceparent string, or None.

    Valid inside any active (recorded) span in the process, regardless of
    which tracer opened it — this is what WAL records and log lines use.
    """
    ctx = _ACTIVE_CONTEXT.get()
    return None if ctx is None else format_traceparent(ctx)


def current_context() -> TraceContext | None:
    """The ambient :class:`TraceContext`, or None outside any span."""
    return _ACTIVE_CONTEXT.get()


class IdSource:
    """Generator of trace/span ids; injectable so tests are deterministic.

    Defaults to an OS-entropy-seeded PRNG; pass ``seed=`` to make two
    tracers mint identical id sequences.
    """

    __slots__ = ("_rng",)

    def __init__(self, seed: int | None = None) -> None:
        self._rng = random.Random(seed)

    def trace_id(self) -> str:
        value = 0
        while value == 0:  # the all-zero trace id is invalid on the wire
            value = self._rng.getrandbits(128)
        return f"{value:032x}"

    def span_id(self) -> str:
        value = 0
        while value == 0:
            value = self._rng.getrandbits(64)
        return f"{value:016x}"


class Span:
    """One timed operation; created via :meth:`Tracer.span`.

    The span is its own context manager (one allocation per span, which
    matters on the servlet dispatch path): entering pushes it on the
    tracer's active stack and publishes its context in the ambient
    contextvar; exiting records the end time, restores the previous
    context, and moves it to the finished ring buffer.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end",
                 "attributes", "error", "thread", "_tracer", "_ctx_token",
                 "_context")

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        start: float,
        attributes: dict[str, Any],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attributes = attributes
        self.error: str | None = None
        # Worker thread that opened the span; interleaved traces from the
        # socket server's pool stay attributable per thread.
        self.thread = threading.get_ident()
        self._tracer = tracer
        self._ctx_token: Any = None
        # Allocated once, shared by __enter__'s ambient publish and every
        # context() caller (hop stamping reads it on the routed path).
        self._context = TraceContext(trace_id, span_id, sampled=True)

    def context(self) -> TraceContext:
        """This span's propagatable identity (always sampled: the span
        exists precisely because the sampling decision said record)."""
        return self._context

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self._ctx_token = _ACTIVE_CONTEXT.set(self._context)
        return self

    def __exit__(self, exc_type: type | None, exc: BaseException | None, tb: object) -> bool:
        tracer = self._tracer
        self.end = tracer.clock()
        if exc is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        if self._ctx_token is not None:
            _ACTIVE_CONTEXT.reset(self._ctx_token)
            self._ctx_token = None
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # mismatched exit (generator misuse); drop it wherever it is
            try:
                stack.remove(self)
            except ValueError:
                pass
        tracer._finished.append(self)
        if tracer._sinks:
            for sink in list(tracer._sinks):
                try:
                    sink(self)
                except Exception:  # noqa: BLE001 - a sink never fails a span
                    pass
        return False

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach an attribute to the span while it is active."""
        self.attributes[key] = value

    def to_payload(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "error": self.error,
            "thread": self.thread,
        }


class _NullSpan:
    __slots__ = ()
    trace_id = ""
    span_id = ""
    parent_id = None
    name = "null"
    start = 0.0
    end = 0.0
    duration = 0.0
    error = None
    attributes: dict[str, Any] = {}

    def context(self) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class Tracer:
    """Factory and ring buffer for :class:`Span` objects."""

    def __init__(
        self,
        *,
        capacity: int = 2048,
        clock: Clock = time.perf_counter,
        enabled: bool = True,
        sample_every: int = 1,
        ids: IdSource | None = None,
    ) -> None:
        """``sample_every=N`` records one top-level span per N requests
        (head-based sampling); children of a sampled span are always
        recorded so sampled traces stay complete trees.  The default of 1
        traces everything, which tests rely on for determinism.

        ``ids`` is the trace/span id source; inject an
        ``IdSource(seed=...)`` for reproducible ids in tests.
        """
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.enabled = enabled
        self.clock = clock
        self.capacity = capacity
        self.sample_every = sample_every
        self.ids = ids if ids is not None else IdSource()
        # The active-span stack is *per thread*: each socket worker (and
        # the daemon thread) nests its own spans; a worker's span must
        # never parent onto another worker's unrelated request.
        self._local = threading.local()
        self._finished: deque[Span] = deque(maxlen=capacity)
        self._sinks: list[Any] = []   # span-completion consumers
        # The sampling tick is an itertools.count: next() on it is a
        # single C-level operation, atomic under the GIL, so the hot
        # unsampled-root path never takes a lock.
        self._sample_tick = itertools.count(1)

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's active-span stack (created on demand)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self,
        name: str,
        *,
        parent: TraceContext | None = None,
        **attributes: Any,
    ) -> Span | _NullSpanContext:
        """Open a span; use as ``with tracer.span("servlet.archive"): ...``.

        ``parent`` joins a *remote* trace: the span adopts the parent's
        ``trace_id`` and records ``parent.span_id`` as its parent link.
        A sampled remote parent bypasses local head-sampling (the origin
        already decided this trace is recorded); an unsampled one yields
        the no-op span, honouring the origin's decision.  Without
        ``parent``, an enclosing local span (the tracer's stack) parents
        the new one; otherwise it starts a fresh root trace.
        """
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        stack = self._stack
        if parent is not None:
            if not parent.sampled:
                return _NULL_SPAN_CONTEXT
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif stack:
            top = stack[-1]
            trace_id = top.trace_id
            parent_id = top.span_id
        else:
            if self.sample_every > 1:
                # Head-based sampling decision, made once per root span;
                # the shared tick is atomic (see __init__), no lock.
                if next(self._sample_tick) % self.sample_every:
                    return _NULL_SPAN_CONTEXT
            trace_id = self.ids.trace_id()
            parent_id = None
        # **attributes is already a fresh dict owned by this call.
        return Span(
            self, trace_id, self.ids.span_id(), parent_id, name,
            self.clock(), attributes,
        )

    def child_span(self, name: str, **attributes: Any) -> Span | _NullSpanContext:
        """Open a span only when a local span is already active.

        Inner components (storage, caches) use this so their spans attach
        to whatever request is in flight without ever *starting* a trace —
        starting one here would charge the head-sampler for work that has
        no root request, skewing the sampling rate.
        """
        if not self._stack:
            return _NULL_SPAN_CONTEXT
        return self.span(name, **attributes)

    def current(self) -> Span | None:
        """The innermost active span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def current_context(self) -> TraceContext | None:
        """The innermost active span's wire context, or None."""
        return self._stack[-1].context() if self._stack else None

    def finished(self, name: str | None = None) -> list[Span]:
        """Completed spans, oldest first, optionally filtered by name."""
        if name is None:
            return list(self._finished)
        return [s for s in self._finished if s.name == name]

    def trace(self, trace_id: str) -> list[Span]:
        """All finished spans belonging to *trace_id*, oldest first."""
        return [s for s in self._finished if s.trace_id == trace_id]

    def attach(self, sink: Any) -> None:
        """Attach a span-completion sink: ``sink(span)`` runs synchronously
        when a span finishes.  This is how workers ship finished spans to
        their JSONL log file; the empty-list check keeps the no-sink hot
        path at one truthiness test."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    def detach(self, sink: Any) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def clear(self) -> None:
        self._finished.clear()

    def to_payload(self) -> list[dict[str, Any]]:
        return [s.to_payload() for s in self._finished]


_NULL_TRACER = Tracer(enabled=False, capacity=1)


def null_tracer() -> Tracer:
    """The shared disabled tracer components default to when unwired."""
    return _NULL_TRACER
