"""Shard dispatch and cross-shard scatter-gather.

:class:`ShardDispatcher` is the one routing code path for both
deployment shapes:

* **Single process** — :class:`~repro.core.memex.MemexServer` builds a
  dispatcher over one :class:`LocalBackend` wrapping its own servlet
  registry.  Every in-process request (the HTTP tunnel, and through it
  every test and example) flows through here, so "single-process mode"
  is literally a one-shard cluster.  With one healthy backend every
  merge is the identity, so responses are bit-identical to direct
  registry dispatch.
* **Sharded** — :class:`~repro.shard.router.ShardRouter` builds a
  dispatcher over one :class:`~repro.server.transport.SocketTransport`
  per shard worker, with the supervisor's availability view plugged in.

Routing classes — a servlet's is the ``routing`` of its row in
:data:`repro.core.servlet_table.SERVLETS`; a name with no row is
forwarded to the owner shard and answered ``unknown_servlet`` there:

* **Owner** (default) — everything about one user's own archive (visit,
  bookmark, search, trail, ...) goes to the shard the consistent-hash
  ring assigns their ``user_id``.
* **Broadcast** — account writes go to *every* shard, owner first,
  because each shard authenticates requests against its local ``users``
  table during scatter.  A broadcast needs the full cluster up;
  otherwise it fails with a retryable ``unavailable`` error rather than
  leave a shard without the user row.
* **Scatter** — community-mining reads fan to every shard concurrently
  and merge deterministically (documented per merger in
  :mod:`repro.shard.merge`).  A down shard degrades the answer instead
  of failing it: the merged response carries ``partial: true`` plus the
  failed shard ids.  Multi-shard merges always stamp ``shards`` (the
  fan-out width) so callers can tell a merged answer from a
  single-shard one.

Batch envelopes route to the owner shard whole (preserving the group
commit) unless they contain broadcast/scatter items, in which case the
envelope is decomposed in order: runs of plain items still ship as
sub-envelopes, special items dispatch individually.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Protocol

from ..core.servlet_table import BROADCAST, OWNER, SCATTER, SERVLETS, Servlet
from ..errors import CODE_UNAVAILABLE, ProtocolError, error_payload
from ..obs.tracing import (
    TraceContext,
    TraceParseError,
    Tracer,
    null_tracer,
    parse_traceparent,
)
from ..server.servlets import BATCH_SERVLET, ServletRegistry
from .ring import HashRing

#: servlet -> scattered-sub-request rewrite, as the table's rows declare
#: it.  The dispatcher reads the row; this view is kept for
#: ``bench/ladder.py``, which replays the sub-request each shard is sent.
SCATTER_REWRITERS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    row.name: row.rewrite for row in SERVLETS.values() if row.rewrite is not None
}


class Backend(Protocol):
    """One shard's request channel (a transport or an in-process wrapper)."""

    def request(self, user_id: str, payload: dict[str, Any]) -> dict[str, Any]: ...


class LocalBackend:
    """In-process backend: dispatch straight into a servlet registry."""

    def __init__(self, registry: ServletRegistry) -> None:
        self.registry = registry

    def request(self, user_id: str, payload: dict[str, Any]) -> dict[str, Any]:
        return self.registry.dispatch(payload)


def _unavailable(detail: str) -> dict[str, Any]:
    return error_payload(ProtocolError(detail, code=CODE_UNAVAILABLE))


class ShardDispatcher:
    """Route requests across shard backends (see module docstring).

    **Degraded-read contract.**  Callers distinguish three outcomes by
    inspecting the response, never by exception type:

    * A merged scatter read always carries ``shards`` (the fan-out
      width actually attempted).  ``shards`` absent means the answer
      came from a single owner shard.
    * If every contacted shard answered, ``partial`` is ``False`` and
      the merge covers the whole cluster.
    * If some (but not all) shards were down or failed, the merge
      still succeeds over the survivors with ``partial: True`` and
      ``shards_failed`` listing the missing shard ids — the caller
      sees a *degraded* answer, not an error.  The window in which
      reads are partial is bounded by the supervisor's restart (see
      ``tests/test_loadgen_chaos.py``).
    * If every shard answered and none answered ok, the owner shard's
      error payload is the answer (``unknown_user`` stays
      ``unknown_user``); only a scatter with a down or raising shard and
      no survivor is a retryable ``unavailable``.
    * Owner-routed and broadcast requests to a down shard fail fast
      with a retryable ``unavailable`` error payload instead: writes
      must never be silently degraded.

    Parameters
    ----------
    backends:
        One :class:`Backend` per shard, indexed by shard id.
    ring:
        User -> shard map; defaults to a fresh :class:`HashRing` over
        ``len(backends)`` shards (the only correct choice unless the
        caller shares one ring between router and supervisor).
    available:
        Liveness predicate ``shard_id -> bool`` (the supervisor's view).
        Unavailable shards are skipped without a connection attempt.
    tracer:
        Router-side tracer.  When enabled, every dispatch opens a
        ``router.dispatch`` span (joining the client's ``traceparent``
        when present), the per-shard hops become child spans, and the
        child context is stamped into the forwarded backend payload so
        workers join the same trace.  Defaults to the shared null
        tracer, which leaves request payloads byte-identical to the
        pre-tracing behaviour.
    shard_info:
        Optional supervisor introspection callable returning per-shard
        lifecycle detail (status, restarts, backoff, last exit); merged
        ``health`` responses embed it and annotate down-shard checks.
    """

    def __init__(
        self,
        backends: list[Backend],
        *,
        ring: HashRing | None = None,
        available: Callable[[int], bool] | None = None,
        tracer: Tracer | None = None,
        shard_info: Callable[[], dict[int, dict[str, Any]]] | None = None,
    ) -> None:
        if not backends:
            raise ValueError("at least one backend is required")
        self.backends = list(backends)
        self.ring = ring if ring is not None else HashRing(len(backends))
        if self.ring.n_shards != len(self.backends):
            raise ValueError("ring size must match backend count")
        self._available = available
        self.tracer = tracer if tracer is not None else null_tracer()
        self._shard_info = shard_info
        # Scatter fan-out pool, only needed beyond one shard; one request
        # occupies at most len(backends) slots for its own fan-out.
        self._pool: ThreadPoolExecutor | None = None
        if len(self.backends) > 1:
            self._pool = ThreadPoolExecutor(
                max_workers=max(4, 2 * len(self.backends)),
                thread_name_prefix="memex-scatter",
            )

    @property
    def n_shards(self) -> int:
        return len(self.backends)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    # -- routing -------------------------------------------------------------

    def shard_for(self, user_id: str) -> int:
        return self.ring.shard_for(user_id)

    def is_available(self, shard: int) -> bool:
        return self._available is None or bool(self._available(shard))

    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        """Route one decoded request; never raises (errors become typed
        wire payloads, exactly like ``ServletRegistry.dispatch``)."""
        if not isinstance(request, dict):
            request = {}
        servlet = request.get("servlet")
        user_raw = request.get("user_id")
        user = user_raw if isinstance(user_raw, str) else ""
        # The owner shard is hashed exactly once per dispatch and threaded
        # through every route: the routing span's attribute and the
        # forwarding decision must agree, and a second sha1 per request
        # would be pure overhead on the hot path.
        owner = self.ring.shard_for(user)
        try:
            if not self.tracer.enabled:
                return self._route(servlet, user, request, owner)
            # The routing span joins the client's trace when the request
            # carries a traceparent; a malformed one is the same typed
            # bad_request the worker registry would produce.  Batch
            # envelopes are exempt: the registry ignores envelope-level
            # traceparents and per-item values error per item instead.
            parent: TraceContext | None = None
            raw_parent = request.get("traceparent")
            if raw_parent is not None and servlet != BATCH_SERVLET:
                try:
                    parent = parse_traceparent(raw_parent)
                except TraceParseError as exc:
                    return error_payload(exc)
            with self.tracer.span(
                "router.dispatch",
                parent=parent,
                servlet=servlet if isinstance(servlet, str) else "",
                user=user,
                shard=owner,
            ):
                return self._route(servlet, user, request, owner)
        except Exception as exc:  # noqa: BLE001 - routing must never raise
            return error_payload(exc)

    def _route(
        self, servlet: Any, user: str, request: dict[str, Any], owner: int,
    ) -> dict[str, Any]:
        if servlet == BATCH_SERVLET:
            return self._dispatch_batch(user, request, owner)
        row = SERVLETS.get(servlet)
        routing = OWNER if row is None else row.route(request)
        if routing == BROADCAST:
            return self._broadcast(user, request, owner, row)
        if routing == SCATTER:
            return self._scatter(user, request, owner, row)
        return self._forward(user, request, owner)

    def _stamp(
        self, request: dict[str, Any], ctx: TraceContext,
    ) -> dict[str, Any]:
        """Stamp the hop span's context into the backend payload.

        The worker's registry parses it and parents its servlet span on
        the router hop, completing client -> router -> shard.  For batch
        envelopes the context is also stamped *per item* (items without
        their own client-side traceparent), because the worker re-parents
        batch items individually and ignores the envelope field.
        """
        stamped = {**request, "traceparent": ctx.to_traceparent()}
        if request.get("servlet") == BATCH_SERVLET and isinstance(
            request.get("requests"), list,
        ):
            tp = ctx.to_traceparent()
            stamped["requests"] = [
                {**item, "traceparent": tp}
                if isinstance(item, dict) and "traceparent" not in item
                else item
                for item in request["requests"]
            ]
        return stamped

    # -- owner-shard forwarding ----------------------------------------------

    def _call(self, shard: int, user: str, request: dict[str, Any]) -> dict[str, Any]:
        """One backend call with unavailability short-circuit; raises
        whatever the backend raises (callers decide how to degrade)."""
        if not self.is_available(shard):
            raise ProtocolError(
                f"shard {shard} is down or restarting", code=CODE_UNAVAILABLE,
            )
        return self.backends[shard].request(user, request)

    def _forward(
        self, user: str, request: dict[str, Any], shard: int,
    ) -> dict[str, Any]:
        try:
            with self.tracer.child_span("router.forward", shard=shard) as hop:
                ctx = hop.context()
                if ctx is not None:
                    request = self._stamp(request, ctx)
                return self._call(shard, user, request)
        except ProtocolError as exc:
            return error_payload(exc)

    # -- broadcast -------------------------------------------------------------

    def _broadcast(
        self, user: str, request: dict[str, Any], owner: int, row: Servlet,
    ) -> dict[str, Any]:
        """Account write to every shard, owner first.  All-or-error: a
        shard missing the user row would reject that user's requests
        forever, so a partial broadcast surfaces as retryable."""
        order = [owner] + [s for s in range(self.n_shards) if s != owner]
        if len(order) == 1:
            return self._forward(user, request, owner)
        oks: list[tuple[int, dict[str, Any]]] = []
        for shard in order:
            try:
                with self.tracer.child_span(
                    "router.broadcast", shard=shard,
                ) as hop:
                    ctx = hop.context()
                    payload = self._stamp(request, ctx) if ctx else request
                    response = self._call(shard, user, payload)
            except Exception as exc:  # noqa: BLE001 - degrade to typed error
                return _unavailable(
                    f"broadcast {row.name!r} failed on shard {shard}: {exc}"
                )
            if response.get("status") != "ok":
                return response
            oks.append((shard, response))
        if row.merge is None:
            merged = dict(oks[0][1])    # owner first
        else:
            merged = row.merge(request, oks, [], owner)
        merged["shards"] = self.n_shards
        return merged

    # -- scatter-gather --------------------------------------------------------

    def _scatter(
        self, user: str, request: dict[str, Any], owner: int, row: Servlet,
    ) -> dict[str, Any]:
        if self.n_shards == 1:
            # Identity path: one shard's answer IS the merged answer.
            return self._forward(user, request, owner)

        # Multi-shard only: widen the sub-request where the merge needs
        # every shard's full window (the one-shard identity path above
        # must stay byte-identical to direct dispatch).
        fanout = request if row.rewrite is None else row.rewrite(request)

        # Captured on the dispatching thread: the pool workers have empty
        # span stacks, so each fan-out hop parents on the routing span
        # explicitly instead of relying on thread-local ambience.
        rctx = self.tracer.current_context()

        def ask(shard: int) -> dict[str, Any] | None:
            try:
                if rctx is not None:
                    with self.tracer.span(
                        "router.scatter", parent=rctx, shard=shard,
                    ) as hop:
                        ctx = hop.context()
                        payload = self._stamp(fanout, ctx) if ctx else fanout
                        return self._call(shard, user, payload)
                return self._call(shard, user, fanout)
            except Exception:  # noqa: BLE001 - a dead shard degrades, not fails
                return None

        assert self._pool is not None
        futures = [
            (shard, self._pool.submit(ask, shard))
            for shard in range(self.n_shards)
        ]
        results = [(shard, future.result()) for shard, future in futures]

        oks = [
            (shard, response)
            for shard, response in results
            if response is not None and response.get("status") == "ok"
        ]
        failed = sorted(set(range(self.n_shards)) - {s for s, _ in oks})
        if not oks:
            if all(response is not None for _, response in results):
                # Every shard answered and refused (an unknown user, say):
                # that is the owner's typed answer, not an outage.
                return results[owner][1]
            return _unavailable(
                f"scatter {row.name!r} failed on every shard "
                f"({self.n_shards} down or erroring)"
            )
        merged = row.merge(request, oks, failed, owner)
        if row.name == "health":
            # The one thing only the dispatcher knows about a servlet.
            self._enrich_health(merged, failed)
        merged["status"] = "ok"
        merged["shards"] = self.n_shards
        merged["partial"] = bool(failed)
        if failed:
            merged["shards_failed"] = failed
        return merged

    def _enrich_health(
        self, merged: dict[str, Any], failed: list[int],
    ) -> None:
        """Fold supervisor lifecycle state into a merged health report.

        Adds a ``supervisor`` section (per-shard status/restarts/backoff/
        last exit) and upgrades each down shard's ``{"ok": False}`` check
        from a bare "shard down" to the *why*: how many restarts so far,
        the backoff currently applied, and the last exit reason.
        """
        if self._shard_info is None:
            return
        try:
            info = self._shard_info()
        except Exception:  # noqa: BLE001 - health must not fail on detail
            return
        if not isinstance(info, dict):
            return
        merged["supervisor"] = {str(k): v for k, v in info.items()}
        checks = merged.get("checks")
        if not isinstance(checks, dict):
            return
        for shard in failed:
            check = checks.get(f"s{shard}.shard")
            detail = info.get(shard, info.get(str(shard)))
            if isinstance(check, dict) and isinstance(detail, dict):
                check.update(
                    {k: v for k, v in detail.items() if k != "ok"})

    # -- batch envelopes -------------------------------------------------------

    def _dispatch_batch(
        self, user: str, envelope: dict[str, Any], owner: int,
    ) -> dict[str, Any]:
        items = envelope.get("requests")

        def special(item: Any) -> bool:
            row = SERVLETS.get(item.get("servlet")) if isinstance(item, dict) else None
            return row is not None and row.route(item) != OWNER

        if not isinstance(items, list) or not any(
            special(item) for item in items
        ):
            # Pure owner-shard batch (the hot path): ship the envelope
            # whole so the shard's group commit stays one WAL fsync.
            return self._forward(user, envelope, owner)
        # Mixed envelope: decompose in order.  Runs of plain items still
        # ship as sub-envelopes; broadcast/scatter items route one by one.
        responses: list[dict[str, Any]] = []
        run: list[Any] = []

        def flush_run() -> None:
            if not run:
                return
            sub = {**envelope, "requests": list(run)}
            result = self._forward(user, sub, owner)
            if result.get("status") == "ok" and isinstance(
                result.get("responses"), list,
            ):
                responses.extend(result["responses"])
            else:
                from ..server.transport import replicate_envelope_failure

                responses.extend(replicate_envelope_failure(result, len(run)))
            run.clear()

        for item in items:
            if special(item):
                flush_run()
                stamped = {**item, "user_id": user} if user else dict(item)
                responses.append(self.dispatch(stamped))
            else:
                run.append(item)
        flush_run()
        return {"status": "ok", "responses": responses}
