"""Servlet registry: named request handlers with state.

"The server consists of servlets that perform various archiving and mining
functions as triggered by client action" (§3).  A servlet is a callable
taking the request dict and returning a response dict; the registry
dispatches on the request's ``servlet`` field, turns exceptions into
error responses (the robustness requirement: a failed request must not
take the server down), and keeps per-servlet counters.

Every error response carries ``error_code`` and ``retryable`` (see
:mod:`repro.errors`) so clients dispatch on codes, never on message text.

Every dispatch is observable: the registry records a request counter, an
error counter, and a latency histogram per servlet
(``server.servlets.*{servlet=name}``) and opens a ``servlet.<name>``
trace span, so the paper's "guaranteed immediate processing" claim for UI
events can actually be checked against numbers.

Batch ingest: the reserved ``batch`` servlet carries a v2 envelope
``{"servlet": "batch", "requests": [...]}``.  :meth:`dispatch_batch`
amortizes one trace span and one latency observation across the whole
batch, routes runs of consecutive same-servlet items through a registered
*batch handler* (which may group-commit storage writes), and isolates
per-item failures — a handler that blows up on a grouped run degrades to
per-item dispatch so one bad item never poisons its neighbours.

Trace propagation: a request (or batch item) may carry a ``traceparent``
field (see :mod:`repro.obs.tracing`).  Dispatch parses it and opens the
servlet span with that remote parent, joining the client's trace; an
absent field means a fresh root (old/v1 clients are unaffected), and a
malformed one yields a typed ``bad_request`` for that request only — a
bad header never drops an item or poisons its neighbours.  In batch
dispatch, per-item spans are opened *only* for items that carry a
context, so the amortized fast path stays amortized for untraced traffic.

Slow-request logging: pass ``slow_request_threshold`` (seconds) and every
single dispatch slower than it emits a ``slow_request`` log record
carrying the request's full span tree.
"""

from __future__ import annotations

import threading
import traceback
from collections.abc import Callable
from typing import Any

from ..errors import (
    CODE_BAD_REQUEST,
    CODE_UNKNOWN_SERVLET,
    ServletError,
    error_payload,
)
from ..obs import (
    Logger,
    MetricsRegistry,
    TraceContext,
    TraceParseError,
    Tracer,
    null_logger,
    null_registry,
    null_tracer,
    parse_traceparent,
)

Handler = Callable[[dict[str, Any]], dict[str, Any]]
BatchHandler = Callable[[list[dict[str, Any]]], list[dict[str, Any]]]

#: Reserved envelope name — not registrable, handled by the registry itself.
BATCH_SERVLET = "batch"


def _error_response(message: str, code: str) -> dict[str, Any]:
    return {
        "status": "error", "error": message,
        "error_code": code, "retryable": False,
    }


class ServletRegistry:
    """Dispatch table from servlet name to handler."""

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        log: Logger | None = None,
        slow_request_threshold: float | None = None,
    ) -> None:
        self._handlers: dict[str, Handler] = {}
        self._batch_handlers: dict[str, BatchHandler] = {}
        self.requests_failed = 0
        # Ok answers per servlet, plus one per ``batch`` envelope handled.
        self._counts: dict[str, int] = {}
        self.metrics = metrics if metrics is not None else null_registry()
        self.tracer = tracer if tracer is not None else null_tracer()
        self.log = log if log is not None else null_logger("servlets")
        self.slow_request_threshold = slow_request_threshold
        self._clock = self.metrics.clock
        # Instrument handles are cached per servlet so the hot path never
        # re-does the registry lookup.
        self._instruments: dict[str, tuple[Any, Any, Any]] = {}
        # Registry lock ("registry" rank in repro.locks.LOCK_ORDER):
        # guards the handler tables, the instrument cache, and the
        # dispatch counters.  Never held while a handler runs — dispatch
        # touches it only for bookkeeping before and after the call.
        self._registry_lock = threading.Lock()
        self._unknown_counter = self.metrics.counter(
            "server.servlets.errors", servlet="<unknown>",
        )

    def register(
        self,
        name: str,
        handler: Handler,
        *,
        batch_handler: BatchHandler | None = None,
    ) -> None:
        """Register *handler* under *name*.

        ``batch_handler`` optionally handles a *list* of requests for this
        servlet in one call (returning one response per request, in order)
        so storage writes can be group-committed; :meth:`dispatch_batch`
        uses it for runs of consecutive same-servlet items and falls back
        to the per-item handler if it fails.
        """
        if name == BATCH_SERVLET:
            raise ServletError(f"servlet name {BATCH_SERVLET!r} is reserved")
        with self._registry_lock:
            if name in self._handlers:
                raise ServletError(f"servlet {name!r} already registered")
            self._handlers[name] = handler
            if batch_handler is not None:
                self._batch_handlers[name] = batch_handler

    def names(self) -> list[str]:
        """Registered servlet names, sorted (excludes the reserved
        ``batch`` envelope, which is not a handler)."""
        with self._registry_lock:
            return sorted(self._handlers)

    def _instruments_for(self, name: str) -> tuple[Any, Any, str]:
        got = self._instruments.get(name)
        if got is None:
            got = self._build_instruments(name)
        return got

    def _build_instruments(self, name: str) -> tuple[Any, Any, str]:
        with self._registry_lock:
            got = self._instruments.get(name)
            if got is not None:
                return got
            latency = self.metrics.histogram(
                "server.servlets.latency", servlet=name)
            # Every dispatch observes latency exactly once, so the request
            # count IS the histogram's sample count — exposed as a pull
            # counter to keep one more increment off the hot path.
            self.metrics.counter_func(
                "server.servlets.requests",
                lambda latency=latency: latency.count,
                servlet=name,
            )
            got = (
                self.metrics.counter("server.servlets.errors", servlet=name),
                latency,
                f"servlet.{name}",   # span name, built once per servlet
            )
            self._instruments[name] = got
            return got

    def _parse_parent(self, request: dict[str, Any]) -> TraceContext | None:
        """Parse the request's ``traceparent`` field; absent ⇒ fresh root.

        Raises :class:`TraceParseError` on malformed values — callers turn
        it into a typed ``bad_request`` for that request alone.
        """
        value = request.get("traceparent")
        if value is None:
            return None
        return parse_traceparent(value)

    def _maybe_log_slow(self, name: str, elapsed: float, span: Any) -> None:
        """Emit the ``slow_request`` record (with the finished span tree)
        for a dispatch slower than ``slow_request_threshold``."""
        threshold = self.slow_request_threshold
        if threshold is None or elapsed < threshold:
            return
        trace_id = getattr(span, "trace_id", "")
        spans = (
            [s.to_payload() for s in self.tracer.trace(trace_id)]
            if trace_id else []
        )
        self.log.warn(
            "slow_request", servlet=name, duration=elapsed,
            threshold=threshold, spans=spans,
        )

    def _answer(
        self, name: str, handler: Handler, request: Any,
    ) -> dict[str, Any]:
        """The servlet isolation boundary, shared by single, per-item and
        grouped dispatch: an exception becomes a typed error payload with
        its traceback; a response without a status gets ``ok`` stamped on
        a copy (a cached response arrives stamped and read-only, and goes
        out as the very object the cache holds); an ok answer is counted."""
        try:
            response = handler(request)
        except Exception as exc:  # noqa: BLE001 - servlet isolation boundary
            return {
                **error_payload(exc),
                "traceback": traceback.format_exc(limit=5),
            }
        if "status" not in response:
            response = {**response, "status": "ok"}
        if response["status"] == "ok":
            with self._registry_lock:
                self._counts[name] = self._counts.get(name, 0) + 1
        return response

    # -- single dispatch ----------------------------------------------------

    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        """Route a request; never raises — errors become ``status: error``
        responses so one bad request cannot kill the server loop."""
        name = request.get("servlet")
        if name == BATCH_SERVLET:
            return self._dispatch_envelope(request)
        if not isinstance(name, str) or name not in self._handlers:
            with self._registry_lock:
                self.requests_failed += 1
            self._unknown_counter.inc()
            return _error_response(
                f"unknown servlet {name!r}", CODE_UNKNOWN_SERVLET)
        errors, latency, span_name = self._instruments_for(name)
        try:
            parent = self._parse_parent(request)
        except TraceParseError as exc:
            errors.inc()
            with self._registry_lock:
                self.requests_failed += 1
            return error_payload(exc)
        clock = self._clock
        start = clock()
        with self.tracer.span(span_name, parent=parent) as span:
            response = self._answer(name, self._handlers[name], request)
            failed = response["status"] != "ok"
            if failed:
                span.set("status", "error")
                self.log.error(
                    "servlet_error", servlet=name, error=response.get("error"),
                )
        elapsed = clock() - start
        latency.observe(elapsed)
        self._maybe_log_slow(name, elapsed, span)
        if failed:
            errors.inc()
            with self._registry_lock:
                self.requests_failed += 1
        return response

    # -- batch dispatch -----------------------------------------------------

    def _dispatch_envelope(self, request: dict[str, Any]) -> dict[str, Any]:
        """Unwrap a ``batch`` envelope into :meth:`dispatch_batch`.

        The envelope's ``user_id`` (stamped by the transport from the
        authenticated channel) is propagated onto every item — items never
        speak for a different user than the frame they rode in on.
        """
        items = request.get("requests")
        if not isinstance(items, list):
            with self._registry_lock:
                self.requests_failed += 1
            return _error_response(
                "batch envelope requires a 'requests' list", CODE_BAD_REQUEST)
        user_id = request.get("user_id")
        if user_id is not None:
            items = [
                {**item, "user_id": user_id} if isinstance(item, dict) else item
                for item in items
            ]
        return {"status": "ok", "responses": self.dispatch_batch(items)}

    def dispatch_batch(
        self, requests: list[dict[str, Any]],
    ) -> list[dict[str, Any]]:
        """Dispatch many requests under one span and one latency sample.

        Consecutive items naming the same servlet are handed to that
        servlet's batch handler (if registered) as one group, letting the
        handler amortize storage commits; everything else goes through the
        per-item path.  Item failures are isolated: each bad item yields a
        typed error response in its slot and its neighbours proceed.

        Items carrying a ``traceparent`` get a per-item (or per-group)
        ``servlet.<name>`` span parented to the remote context — joining
        the client's trace — while untraced items keep the fully
        amortized path (no per-item spans).  A malformed traceparent
        yields a typed ``bad_request`` in that item's slot, never a
        dropped item, and is excluded from grouping so it cannot poison a
        group commit.
        """
        errors, latency, _ = self._instruments_for(BATCH_SERVLET)
        clock = self._clock
        start = clock()
        # Per-item trace contexts, resolved up-front: TraceContext, None
        # (absent ⇒ amortized path), or TraceParseError (malformed).
        contexts: list[Any] = []
        for item in requests:
            if isinstance(item, dict) and item.get("traceparent") is not None:
                try:
                    contexts.append(parse_traceparent(item["traceparent"]))
                except TraceParseError as exc:
                    contexts.append(exc)
            else:
                contexts.append(None)
        responses: list[dict[str, Any]] = []
        with self.tracer.span("servlet.batch") as span:
            span.set("items", len(requests))
            i = 0
            while i < len(requests):
                if isinstance(contexts[i], TraceParseError):
                    responses.append(error_payload(contexts[i]))
                    i += 1
                    continue
                item = requests[i]
                name = item.get("servlet") if isinstance(item, dict) else None
                group = [item]
                if isinstance(name, str) and name in self._batch_handlers:
                    while (
                        i + len(group) < len(requests)
                        and isinstance(requests[i + len(group)], dict)
                        and requests[i + len(group)].get("servlet") == name
                        and not isinstance(
                            contexts[i + len(group)], TraceParseError)
                    ):
                        group.append(requests[i + len(group)])
                group_contexts = [
                    c for c in contexts[i:i + len(group)] if c is not None
                ]
                if len(group) > 1 or (
                    isinstance(name, str) and name in self._batch_handlers
                ):
                    if group_contexts:
                        # One span joins the first traced item's trace and
                        # records the rest as links, so every traced item
                        # resolves to this group's span tree.
                        with self.tracer.span(
                            f"servlet.{name}", parent=group_contexts[0],
                        ) as gspan:
                            gspan.set("items", len(group))
                            if len(group_contexts) > 1:
                                gspan.set("links", [
                                    c.trace_id for c in group_contexts[1:]
                                ])
                            responses.extend(
                                self._dispatch_group(name, group))
                    else:
                        responses.extend(self._dispatch_group(name, group))
                elif group_contexts:
                    with self.tracer.span(
                        f"servlet.{name}", parent=group_contexts[0],
                    ):
                        responses.append(self._dispatch_item(item))
                else:
                    responses.append(self._dispatch_item(item))
                i += len(group)
            n_failed = sum(1 for r in responses if r.get("status") != "ok")
            if n_failed:
                span.set("failed", n_failed)
                errors.inc(n_failed)
        latency.observe(clock() - start)
        with self._registry_lock:
            self.requests_failed += n_failed
            self._counts[BATCH_SERVLET] = self._counts.get(BATCH_SERVLET, 0) + 1
        return responses

    def _dispatch_group(
        self, name: str, group: list[dict[str, Any]],
    ) -> list[dict[str, Any]]:
        """One batch-handler call for a same-servlet run, with fallback.

        The batch handler is all-or-nothing from the registry's view: it
        must return exactly one response per request.  If it raises (or
        returns the wrong shape), the group is re-dispatched item by item,
        which restores per-item isolation at per-item cost.
        """
        try:
            responses = self._batch_handlers[name](group)
            if len(responses) != len(group):
                raise ServletError(
                    f"batch handler for {name!r} returned {len(responses)} "
                    f"responses for {len(group)} requests"
                )
        except Exception:  # noqa: BLE001 - degrade to per-item isolation
            return [self._dispatch_item(item) for item in group]
        # The batch handler has answered; each answer still passes the
        # boundary a single dispatch's does.
        return [
            self._answer(name, lambda _item, response=response: response, item)
            for item, response in zip(group, responses)
        ]

    def _dispatch_item(self, request: Any) -> dict[str, Any]:
        """Per-item core of batch dispatch: isolation without per-item
        spans or latency samples (those are amortized at batch level)."""
        if not isinstance(request, dict):
            return _error_response(
                "batch items must be JSON objects", CODE_BAD_REQUEST)
        name = request.get("servlet")
        if name == BATCH_SERVLET:
            return _error_response(
                "batch envelopes cannot nest", CODE_BAD_REQUEST)
        if not isinstance(name, str) or name not in self._handlers:
            self._unknown_counter.inc()
            return _error_response(
                f"unknown servlet {name!r}", CODE_UNKNOWN_SERVLET)
        return self._answer(name, self._handlers[name], request)

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Dispatch totals: requests served/failed, batch envelopes
        handled, and a per-servlet success count (``served`` is derived
        from it)."""
        with self._registry_lock:
            counts = dict(self._counts)
            failed = self.requests_failed
        return {
            "served": sum(counts.values()) - counts.get(BATCH_SERVLET, 0),
            "failed": failed,
            "batches": counts.get(BATCH_SERVLET, 0),
            "by_servlet": counts,
        }

    def latency_summary(self) -> dict[str, dict[str, float]]:
        """Per-servlet latency percentiles (empty when metrics disabled)."""
        return {
            name: instruments[1].summary()
            for name, instruments in sorted(self._instruments.items())
            if instruments[1].count
        }

    def latency_raw(self) -> dict[str, dict[str, Any]]:
        """Per-servlet raw histogram payloads (bucket counts, mergeable
        bucket-wise across shards — see ``repro.obs.metrics.
        merge_histogram_raw``); empty when metrics are disabled."""
        return {
            name: instruments[1].raw()
            for name, instruments in sorted(self._instruments.items())
            if instruments[1].count
        }

    def servlet_instruments(self) -> dict[str, tuple[Any, Any]]:
        """Per-servlet ``(error_counter, latency_histogram)`` handles for
        servlets that have seen traffic — the SLO layer evaluates these."""
        return {
            name: (instruments[0], instruments[1])
            for name, instruments in sorted(self._instruments.items())
            if instruments[1].count
        }
