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

Routing classes (by servlet name):

* **Owner** (default) — everything about one user's own archive (visit,
  bookmark, search, trail, ...) goes to the shard the consistent-hash
  ring assigns their ``user_id``.
* **Broadcast** (:data:`BROADCAST_SERVLETS`) — account writes go to
  *every* shard, owner first, because each shard authenticates
  requests against its local ``users`` table during scatter.  A
  broadcast needs the full cluster up; otherwise it fails with a
  retryable ``unavailable`` error rather than leave a shard without
  the user row.
* **Scatter** (:data:`SCATTER_SERVLETS`) — community-mining reads fan
  to every shard concurrently and merge deterministically (documented
  per merger below).  A down shard degrades the answer instead of
  failing it: the merged response carries ``partial: true`` plus the
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

from ..errors import CODE_UNAVAILABLE, ProtocolError, error_payload
from ..obs.metrics import (
    MetricsRegistry,
    merge_histogram_raw,
    merge_snapshots,
    null_registry,
    summarize_histogram_raw,
)
from ..obs.tracing import (
    TraceContext,
    TraceParseError,
    Tracer,
    null_tracer,
    parse_traceparent,
)
from ..retrieval.fusion import canonical_url
from ..server.servlets import BATCH_SERVLET, ServletRegistry
from .ring import HashRing

#: Community-mining reads that fan out to every shard and merge.
SCATTER_SERVLETS = frozenset({
    "themes_get",
    "resources",
    "related_pages",
    "profile_similar",
    "interest_mates",
    "recommend",
    "popular_near_trail",
    "stats",
    "health",
    "metrics_pull",
})

#: Account writes replicated to every shard (shard-local authentication).
BROADCAST_SERVLETS = frozenset({"register_user", "set_archive_mode"})


def _is_scatter(servlet: Any, request: dict[str, Any]) -> bool:
    """Whether this request fans out to every shard.

    ``search`` is normally owner-routed (one user's archive), but hybrid
    mode folds in community trail evidence that lives on every shard, so
    it scatters like the other community-mining reads.
    """
    if servlet in SCATTER_SERVLETS:
        return True
    return servlet == "search" and request.get("mode") == "hybrid"


SEARCH_MODES = ("ranked", "boolean", "hybrid")
SEARCH_SCOPES = ("all", "mine", "community")


def search_options(request: dict[str, Any]) -> tuple[int, int, str, str]:
    """``(limit, offset, mode, scope)`` of a ``search`` request.

    A negative window or an unknown mode/scope raises ``ValueError``
    (-> typed ``bad_request``) instead of silently ranking as BM25 over
    everything under a cache key of its own.
    """
    k = int(request.get("k", 10))
    limit = int(request.get("limit", k))
    offset = int(request.get("offset", 0))
    if limit < 0 or offset < 0:
        raise ValueError("limit and offset must be non-negative")
    mode = request.get("mode", "ranked")
    if mode not in SEARCH_MODES:
        raise ValueError(f"mode must be one of {', '.join(SEARCH_MODES)}")
    scope = request.get("scope", "all")
    if scope not in SEARCH_SCOPES:
        raise ValueError(f"scope must be one of {', '.join(SEARCH_SCOPES)}")
    return limit, offset, mode, scope


def _rewrite_search(request: dict[str, Any]) -> dict[str, Any]:
    """The sub-request each shard answers during a scattered search.

    Pagination must happen *after* the cross-shard merge dedups canonical
    URLs — a shard that pre-paginates would hide hits the merger later
    drops as duplicates, drifting ``total``/``has_more``.  So shards are
    asked for their full ranked window and the merger re-paginates with
    the caller's original offset/limit.

    Validates the caller's request here, since the shards only ever see
    the rewritten one and N identical ``bad_request`` replies would merge
    into "no shard answered".
    """
    search_options(request)
    return {**request, "offset": 0, "limit": 1_000_000}


#: servlet -> scattered-sub-request rewrite (identity when absent).
#: Applied only on the true multi-shard fan-out path; a one-shard
#: cluster forwards the original request untouched (bit-identical
#: responses to direct registry dispatch).
SCATTER_REWRITERS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "search": _rewrite_search,
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


def _ranked_merge(
    rows_by_shard: list[tuple[int, list[dict[str, Any]]]],
    *,
    id_field: str,
    score_field: str,
    k: int,
    combine: Callable[[dict[str, Any], dict[str, Any]], dict[str, Any]] | None = None,
    canonical: Callable[[Any], Any] | None = None,
) -> list[dict[str, Any]]:
    """Deterministic union of per-shard ranked lists.

    Duplicates (same ``id_field``) keep the higher-scoring row (ties:
    lower shard id, since shards merge in ascending order); *combine*
    may fold fields from the losing duplicate into the winner.  The
    union re-sorts by ``(-score, id)`` and truncates to *k*.

    *canonical* maps ids to their dedup key.  URL-keyed merges pass
    :func:`repro.retrieval.fusion.canonical_url` here: two shards can
    hand back the same underlying page under different spellings (a
    shard-namespaced ``s<shard>/...`` id, host-case or trailing-slash
    variants), and a raw-string merge would return it twice.
    """
    best: dict[Any, dict[str, Any]] = {}
    for _shard, rows in rows_by_shard:
        for row in rows:
            key = row.get(id_field)
            if canonical is not None and key is not None:
                key = canonical(key)
            seen = best.get(key)
            if seen is None:
                best[key] = dict(row)
            else:
                if row.get(score_field, 0.0) > seen.get(score_field, 0.0):
                    merged = dict(row)
                    if combine is not None:
                        merged = combine(merged, seen)
                    best[key] = merged
                elif combine is not None:
                    best[key] = combine(dict(seen), row)
    ranked = sorted(
        best.values(),
        key=lambda r: (-r.get(score_field, 0.0), str(r.get(id_field))),
    )
    return ranked[:k] if k >= 0 else ranked


def _owner_first(
    oks: list[tuple[int, dict[str, Any]]], owner: int,
) -> dict[str, Any] | None:
    """The owner shard's response if it answered, else the first."""
    for shard, response in oks:
        if shard == owner:
            return response
    return oks[0][1] if oks else None


def _namespace_theme(theme: dict[str, Any], shard: int) -> dict[str, Any]:
    """Prefix theme ids with the shard so merged taxonomies never collide."""
    out = dict(theme)
    out["theme_id"] = f"s{shard}/{theme['theme_id']}"
    out["children"] = [_namespace_theme(c, shard) for c in theme.get("children", [])]
    return out


def _merge_themes(request, oks, failed, owner):
    roots: list[dict[str, Any]] = []
    for shard, response in oks:
        roots.extend(_namespace_theme(t, shard) for t in response.get("themes", []))
    roots.sort(key=lambda t: (-t.get("weight", 0.0), t["theme_id"]))
    return {"themes": roots}


def _merge_resources(request, oks, failed, owner):
    k = int(request.get("k", 10))
    rows = [(s, r.get("resources", [])) for s, r in oks]
    merged = _ranked_merge(
        rows, id_field="url", score_field="score", k=k, canonical=canonical_url,
    )
    head = _owner_first(oks, owner) or {}
    if head.get("theme") is None:
        # Owner shard matched no theme; borrow the first shard that did.
        for _s, r in oks:
            if r.get("theme") is not None:
                head = r
                break
    return {
        "resources": merged,
        "theme": head.get("theme"),
        **({"theme_label": head["theme_label"]} if "theme_label" in head else {}),
    }


def _merge_users(score_field: str, default_k: int):
    def merge(request, oks, failed, owner):
        k = int(request.get("k", default_k))
        rows = [(s, r.get("users", [])) for s, r in oks]
        merged = _ranked_merge(
            rows, id_field="user_id", score_field=score_field, k=k,
        )
        out: dict[str, Any] = {"users": merged}
        head = _owner_first(oks, owner) or {}
        if "theme" in head:
            out["theme"] = head.get("theme")
        if "theme_label" in head:
            out["theme_label"] = head.get("theme_label")
        return out
    return merge


def _merge_pages(request, oks, failed, owner):
    k = int(request.get("k", 10))
    rows = [(s, r.get("pages", [])) for s, r in oks]

    def combine(winner, loser):
        if winner.get("in_trail") or loser.get("in_trail"):
            winner = {**winner, "in_trail": True}
        return winner

    has_in_trail = any(
        "in_trail" in row for _s, page_rows in rows for row in page_rows
    )
    merged = _ranked_merge(
        rows, id_field="url", score_field="score", k=k,
        combine=combine if has_in_trail else None,
        canonical=canonical_url,
    )
    return {"pages": merged}


def _merge_search(request, oks, failed, owner):
    """Cluster hybrid search: union, canonical-dedup, then re-paginate.

    Each shard answered the :func:`_rewrite_search` sub-request (its full
    ranked list), so this merge sees every hit before any page window is
    applied: ``total`` counts the post-dedup union and ``has_more`` is
    exact — the satellite-3 contract (count after dedup, never before).
    """
    limit, offset, _mode, _scope = search_options(request)
    rows = [(s, r.get("hits", [])) for s, r in oks]
    merged = _ranked_merge(
        rows, id_field="url", score_field="score", k=-1,
        canonical=canonical_url,
    )
    total = len(merged)
    page = merged[offset:offset + limit]
    return {
        "hits": page,
        "total": total,
        "offset": offset,
        "has_more": offset + len(page) < total,
    }


def _merge_related(request, oks, failed, owner):
    """Cluster ``related_pages``: canonical-dedup union of the per-shard
    neighborhoods, truncated to the caller's ``k`` after ``total`` is
    counted post-dedup."""
    k = int(request.get("k", 10))
    rows = [(s, r.get("related", [])) for s, r in oks]
    merged = _ranked_merge(
        rows, id_field="url", score_field="score", k=-1,
        canonical=canonical_url,
    )
    head = _owner_first(oks, owner) or {}
    return {
        "url": head.get("url", request.get("url")),
        "related": merged[:k],
        "total": len(merged),
    }


#: Catalog counters summed across shards in the ``stats`` merge.
_STATS_SUMMED = ("pages", "visits", "links", "indexed", "crawl_backlog")


def _sum_numeric(dicts: list[dict[str, Any]]) -> dict[str, Any]:
    """Element-wise sum of numeric leaves across dicts.

    Nested dicts recurse; strings and booleans keep the first occurrence
    (e.g. the storage section's ``engine`` name, identical fleet-wide).
    """
    out: dict[str, Any] = {}
    for d in dicts:
        if not isinstance(d, dict):
            continue
        for key, value in d.items():
            if isinstance(value, bool):
                out.setdefault(key, value)
            elif isinstance(value, (int, float)):
                prior = out.get(key, 0)
                out[key] = (prior if isinstance(prior, (int, float)) else 0) + value
            elif isinstance(value, dict):
                prior = out.get(key)
                out[key] = _sum_numeric(
                    ([prior] if isinstance(prior, dict) else []) + [value])
            else:
                out.setdefault(key, value)
    return out


def _merge_stats(request, oks, failed, owner):
    """Cluster ``stats``: sum the catalog counters *and* merge sections.

    * ``servlets`` / ``storage`` — numeric leaves sum across shards.
    * ``cache`` — counts sum, then each cache's ``hit_rate`` is
      recomputed from the summed hits/misses (summing rates would be
      meaningless).
    * ``versioning_lag`` — the max per consumer (the worst shard is
      what an operator acts on; summing lags across shards is noise).
    * ``latency`` — per-servlet raw histograms (``latency_raw``) merge
      bucket-wise, so the cluster percentiles are exact rather than
      averaged; the shipped summaries replace the per-shard ones.
    * ``daemons`` stays per-shard only (quarantine state is not
      additive); everything remains available under ``by_shard``.
    """
    out: dict[str, Any] = {key: 0 for key in _STATS_SUMMED}
    by_shard: dict[str, dict[str, Any]] = {}
    for shard, response in oks:
        for key in _STATS_SUMMED:
            out[key] += int(response.get(key, 0))
        by_shard[str(shard)] = response
    responses = [r for _s, r in oks]

    servlets = [r.get("servlets") for r in responses
                if isinstance(r.get("servlets"), dict)]
    if servlets:
        out["servlets"] = _sum_numeric(servlets)

    caches = [r.get("cache") for r in responses
              if isinstance(r.get("cache"), dict)]
    if caches:
        merged_cache = _sum_numeric(caches)
        for stats in merged_cache.values():
            if isinstance(stats, dict) and "hit_rate" in stats:
                lookups = stats.get("hits", 0) + stats.get("misses", 0)
                stats["hit_rate"] = (
                    stats.get("hits", 0) / lookups if lookups else 0.0)
        out["cache"] = merged_cache

    storages = [r.get("storage") for r in responses
                if isinstance(r.get("storage"), dict)]
    if storages:
        out["storage"] = _sum_numeric(storages)

    lags = [r.get("versioning_lag") for r in responses
            if isinstance(r.get("versioning_lag"), dict)]
    if lags:
        merged_lag: dict[str, Any] = {}
        for d in lags:
            for consumer, lag in d.items():
                merged_lag[consumer] = max(merged_lag.get(consumer, 0), lag)
        out["versioning_lag"] = merged_lag

    raws = [r.get("latency_raw") for r in responses
            if isinstance(r.get("latency_raw"), dict)]
    if raws:
        merged_raw: dict[str, Any] = {}
        for d in raws:
            for name, raw in d.items():
                try:
                    merged_raw[name] = merge_histogram_raw(
                        merged_raw.get(name), raw)
                except (KeyError, TypeError, ValueError):
                    continue  # malformed shard payload degrades that entry
        out["latency"] = {
            name: summarize_histogram_raw(raw)
            for name, raw in merged_raw.items()
        }

    out["by_shard"] = by_shard
    return out


def _merge_metrics(request, oks, failed, owner):
    """Cluster ``metrics_pull``: one true cluster-level registry view.

    ``metrics`` is the bucket-wise merge of every shard's raw snapshot
    (exact cluster percentiles); ``by_shard`` keeps the full per-shard
    responses for drill-down.
    """
    snaps = [r.get("metrics") for _s, r in oks
             if isinstance(r.get("metrics"), dict)]
    return {
        "metrics": merge_snapshots(snaps),
        "by_shard": {str(s): r for s, r in oks},
    }


def _merge_health(request, oks, failed, owner):
    checks: dict[str, Any] = {}
    slos: dict[str, Any] = {}
    ready = not failed
    for shard, response in oks:
        if response.get("health") != "ready":
            ready = False
        for name, check in response.get("checks", {}).items():
            checks[f"s{shard}.{name}"] = check
        for name, slo in response.get("slos", {}).items():
            slos[f"s{shard}.{name}"] = slo
    for shard in failed:
        checks[f"s{shard}.shard"] = {"ok": False, "detail": "shard down"}
    return {
        "live": all(r.get("live") for _s, r in oks) and not failed,
        "health": "ready" if ready else "degraded",
        "checks": checks,
        "slos": slos,
    }


#: servlet -> deterministic multi-shard merge (single-shard answers skip
#: merging entirely and pass through unchanged).
MERGERS: dict[str, Callable[..., dict[str, Any]]] = {
    "themes_get": _merge_themes,
    "resources": _merge_resources,
    "search": _merge_search,
    "related_pages": _merge_related,
    "profile_similar": _merge_users("similarity", 5),
    "interest_mates": _merge_users("interest", 5),
    "recommend": _merge_pages,
    "popular_near_trail": _merge_pages,
    "stats": _merge_stats,
    "health": _merge_health,
    "metrics_pull": _merge_metrics,
}


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
        metrics: MetricsRegistry | None = None,
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
        m = metrics if metrics is not None else null_registry()
        self.forwarded_total = m.counter("shard.forwarded_total")
        self.scatter_total = m.counter("shard.scatter_total")
        self.partial_total = m.counter("shard.partial_total")
        self.unavailable_total = m.counter("shard.unavailable_total")
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
        if servlet in BROADCAST_SERVLETS:
            return self._broadcast(user, request, owner)
        if _is_scatter(servlet, request):
            return self._scatter(user, request, owner)
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
        self.forwarded_total.inc()
        try:
            with self.tracer.child_span("router.forward", shard=shard) as hop:
                ctx = hop.context()
                if ctx is not None:
                    request = self._stamp(request, ctx)
                return self._call(shard, user, request)
        except ProtocolError as exc:
            if exc.code == CODE_UNAVAILABLE:
                self.unavailable_total.inc()
            return error_payload(exc)

    # -- broadcast -------------------------------------------------------------

    def _broadcast(
        self, user: str, request: dict[str, Any], owner: int,
    ) -> dict[str, Any]:
        """Account write to every shard, owner first.  All-or-error: a
        shard missing the user row would reject that user's requests
        forever, so a partial broadcast surfaces as retryable."""
        order = [owner] + [s for s in range(self.n_shards) if s != owner]
        if len(order) == 1:
            return self._forward(user, request, owner)
        responses: dict[int, dict[str, Any]] = {}
        for shard in order:
            try:
                with self.tracer.child_span(
                    "router.broadcast", shard=shard,
                ) as hop:
                    ctx = hop.context()
                    payload = self._stamp(request, ctx) if ctx else request
                    response = self._call(shard, user, payload)
            except Exception as exc:  # noqa: BLE001 - degrade to typed error
                self.unavailable_total.inc()
                return _unavailable(
                    f"broadcast {request.get('servlet')!r} failed on shard "
                    f"{shard}: {exc}"
                )
            if response.get("status") != "ok":
                return response
            responses[shard] = response
        merged = dict(responses[owner])
        if request.get("servlet") == "register_user":
            merged["created"] = any(
                bool(r.get("created")) for r in responses.values()
            )
        merged["shards"] = self.n_shards
        return merged

    # -- scatter-gather --------------------------------------------------------

    def _scatter(
        self, user: str, request: dict[str, Any], owner: int,
    ) -> dict[str, Any]:
        servlet = request.get("servlet")
        self.scatter_total.inc()
        if self.n_shards == 1:
            # Identity path: one shard's answer IS the merged answer.
            return self._forward(user, request, owner)

        # Multi-shard only: widen the sub-request where the merge needs
        # every shard's full window (the one-shard identity path above
        # must stay byte-identical to direct dispatch).
        rewriter = SCATTER_REWRITERS.get(servlet or "")
        fanout = rewriter(request) if rewriter is not None else request

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
            self.unavailable_total.inc()
            return _unavailable(
                f"scatter {servlet!r} failed on every shard "
                f"({self.n_shards} down or erroring)"
            )
        merger = MERGERS.get(servlet or "")
        if merger is None:  # pragma: no cover - SCATTER keys all have mergers
            merged = dict(_owner_first(oks, owner) or {})
        else:
            merged = merger(request, oks, failed, owner)
        if servlet == "health":
            self._enrich_health(merged, failed)
        merged["status"] = "ok"
        merged["shards"] = self.n_shards
        merged["partial"] = bool(failed)
        if failed:
            self.partial_total.inc()
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
            return isinstance(item, dict) and (
                item.get("servlet") in BROADCAST_SERVLETS
                or _is_scatter(item.get("servlet"), item)
            )

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
