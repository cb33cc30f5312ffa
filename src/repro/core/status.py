"""The observability servlets: ``stats``, ``health`` and ``metrics_pull``
(not beside the health checks in :mod:`.memex`: the servlet table imports
every handler at module level, and ``memex`` imports the table)."""

from __future__ import annotations

from .request import Request, Response, Server, User, count_field


def serve_stats(server: Server, user: User, request: Request) -> Response:
    """The observability servlet: catalog sizes, daemon and servlet
    counters, per-servlet latency percentiles, per-consumer versioning
    lag (the "loose coherence" headline gauge), and — on request — the
    full metric snapshot, recent trace spans, and the structured log
    ring."""
    repo, registry = server.repo, server.registry
    out = {
        "pages": len(repo.db.table("pages")),
        "visits": len(repo.db.table("visits")),
        "links": len(repo.db.table("links")),
        "indexed": server.index.num_docs,
        "crawl_backlog": server.crawler.backlog,
        "daemons": server.scheduler.stats(),
        "servlets": registry.stats(),
        "versions": repo.versions.consumers(),
        "versioning_lag": repo.versions.lags(),
        "latency": registry.latency_summary(),
        "latency_raw": registry.latency_raw(),
        "cache": server.caches.stats() if server.caches is not None else {},
        "storage": repo.storage_stats(),
    }
    if request.get("include_metrics"):
        out["metrics"] = server.metrics.snapshot()
    if request.get("include_spans"):
        out["spans"] = server.tracer.to_payload()
    if request.get("include_logs"):
        out["logs"] = server.logs.to_payload(
            limit=count_field(request, "log_limit", 200),
        )
    return out


def serve_health(server: Server, user: None, request: Request) -> Response:
    """Liveness/readiness plus per-servlet SLO status.

    Unauthenticated by design: load balancers and probes must be able
    to ask "are you well?" without a user row.  SLOs are (re)bound
    lazily from the registry's live instruments so servlets that have
    never seen traffic don't report empty objectives.
    """
    for name, (errors, latency) in server.registry.servlet_instruments().items():
        server.health.slo(name, latency, errors)
    return server.health.report()


def serve_metrics_pull(server: Server, user: None, request: Request) -> Response:
    """Mergeable raw metrics: bucket counts, not summaries.

    Unauthenticated by design, like ``health``: this is the operator
    pull path the router scatter-gathers into a cluster registry
    (``repro top``), and a monitoring agent must not need a user row.
    Rates are the reader's business: ``repro top`` diffs two pulls.
    """
    return {"metrics": server.metrics.raw_snapshot()}
