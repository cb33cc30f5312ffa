"""Deterministic merges of per-shard answers to one scattered request.

Each is named by its servlet's row in :mod:`repro.core.servlet_table` and
called as ``merge(request, oks, failed, owner)``: the caller's request,
the ``(shard, response)`` pairs that answered ok in ascending shard
order, the shard ids that did not, and the caller's owner shard.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.request import top_k
from ..core.search import search_options
from ..obs.metrics import (
    merge_histogram_raw,
    merge_snapshots,
    summarize_histogram_raw,
)
from ..retrieval.fusion import canonical_url


def _ranked_merge(
    rows_by_shard: list[tuple[int, list[dict[str, Any]]]],
    *,
    id_field: str,
    score_field: str,
    k: int | None,
    combine: Callable[[dict[str, Any], dict[str, Any]], dict[str, Any]] | None = None,
    canonical: Callable[[Any], Any] | None = None,
) -> list[dict[str, Any]]:
    """Deterministic union of per-shard ranked lists.

    Duplicates (same ``id_field``) keep the higher-scoring row (ties:
    lower shard id, since shards merge in ascending order); *combine*
    may fold fields from the losing duplicate into the winner.  The
    union re-sorts by ``(-score, id)`` and truncates to *k* (``None``: all).

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
    return ranked[:k]


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


def merge_themes(request, oks, failed, owner):
    roots: list[dict[str, Any]] = []
    for shard, response in oks:
        roots.extend(_namespace_theme(t, shard) for t in response.get("themes", []))
    roots.sort(key=lambda t: (-t.get("weight", 0.0), t["theme_id"]))
    return {"themes": roots}


def merge_resources(request, oks, failed, owner):
    k = top_k(request, 10)
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


def _merge_users(request, oks, owner, score_field: str) -> dict[str, Any]:
    rows = [(s, r.get("users", [])) for s, r in oks]
    merged = _ranked_merge(
        rows, id_field="user_id", score_field=score_field, k=top_k(request, 5),
    )
    out: dict[str, Any] = {"users": merged}
    head = _owner_first(oks, owner) or {}
    if "theme" in head:
        out["theme"] = head.get("theme")
    if "theme_label" in head:
        out["theme_label"] = head.get("theme_label")
    return out


def merge_profile_similar(request, oks, failed, owner):
    return _merge_users(request, oks, owner, "similarity")


def merge_interest_mates(request, oks, failed, owner):
    return _merge_users(request, oks, owner, "interest")


def merge_pages(request, oks, failed, owner):
    k = top_k(request, 10)
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


def merge_search(request, oks, failed, owner):
    """Cluster hybrid search: union, canonical-dedup, then re-paginate.

    Each shard answered the :func:`search_fanout` sub-request (its full
    ranked list), so this merge sees every hit before any page window is
    applied: ``total`` counts the post-dedup union and ``has_more`` is
    exact — the satellite-3 contract (count after dedup, never before).
    """
    limit, offset, _mode, _scope = search_options(request)
    rows = [(s, r.get("hits", [])) for s, r in oks]
    merged = _ranked_merge(
        rows, id_field="url", score_field="score", k=None,
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


def merge_related(request, oks, failed, owner):
    """Cluster ``related_pages``: canonical-dedup union of the per-shard
    neighborhoods, truncated to the caller's ``k`` after ``total`` is
    counted post-dedup."""
    k = top_k(request, 10)
    rows = [(s, r.get("related", [])) for s, r in oks]
    merged = _ranked_merge(
        rows, id_field="url", score_field="score", k=None,
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


def merge_stats(request, oks, failed, owner):
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


def merge_metrics(request, oks, failed, owner):
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


def merge_health(request, oks, failed, owner):
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


def merge_register_user(request, oks, failed, owner):
    """Broadcast ``register_user``: the owner's answer, ``created`` if any
    shard created the row."""
    return {
        **_owner_first(oks, owner),
        "created": any(bool(r.get("created")) for _s, r in oks),
    }
