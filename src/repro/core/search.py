"""The retrieval servlets — ``search`` (BM25, boolean, or the hybrid
reciprocal-rank fusion of DESIGN.md §13), ``related_pages`` and ``recall``
— and what the shard layer shares with the ``search`` handler: its
option parsing, its routing and its scattered sub-request.
"""

from __future__ import annotations

from typing import Any

from ..retrieval.covisit import related_scores
from ..retrieval.fusion import canonical_url, rrf_fuse
from ..storage.repository import MemexRepository
from ..text.query import ranked_boolean_search
from ..text.snippets import query_stems, stem_snippet
from ..text.vectorize import query_vector, tfidf
from .request import (
    DAY,
    OWNER,
    SCATTER,
    Request,
    Response,
    Server,
    User,
    count_field,
    number_field,
    text_field,
    top_k,
)

#: Reciprocal-rank-fusion weights for hybrid search (DESIGN.md §13):
#: lexical evidence leads, dense similarity seconds it, trail adjacency
#: contributes but cannot override a strong text match on its own.
HYBRID_WEIGHTS = {"lexical": 1.0, "dense": 0.8, "covisit": 0.6}
#: Depth of the dense/co-visit rankings fed into fusion.
FUSE_DEPTH = 50
#: Top lexical hits whose co-visitation neighborhoods seed the trail leg.
COVISIT_SEEDS = 10
#: Rocchio beta: how strongly the lexical top hits' dense centroid pulls
#: the projected query (pseudo-relevance feedback for short queries).
PRF_FEEDBACK = 0.75

SEARCH_MODES = ("ranked", "boolean", "hybrid")
SEARCH_SCOPES = ("all", "mine", "community")


def search_options(request: Request) -> tuple[int, int, str, str]:
    """``(limit, offset, mode, scope)`` of a ``search`` request.

    A negative or non-integer window or an unknown mode/scope raises
    ``ValueError`` (-> typed ``bad_request``) instead of silently ranking
    as BM25 over everything under a cache key of its own.
    """
    limit = count_field(request, "limit", top_k(request, 10))
    offset = count_field(request, "offset", 0)
    mode = request.get("mode", "ranked")
    if mode not in SEARCH_MODES:
        raise ValueError(f"mode must be one of {', '.join(SEARCH_MODES)}")
    scope = request.get("scope", "all")
    if scope not in SEARCH_SCOPES:
        raise ValueError(f"scope must be one of {', '.join(SEARCH_SCOPES)}")
    return limit, offset, mode, scope


def search_routing(request: Request) -> str:
    """``search`` is one user's archive, so normally owner-routed; hybrid
    mode folds in community trail evidence that lives on every shard, so
    it scatters like the other community-mining reads."""
    return SCATTER if request.get("mode") == "hybrid" else OWNER


def search_fanout(request: Request) -> Request:
    """The sub-request each shard answers during a scattered search:
    ``offset=0, limit=1_000_000``.

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


def hit_payloads(
    repo: MemexRepository, scored: list[tuple[str, float]],
) -> list[dict[str, Any]]:
    """``{url, score, title}`` per ``(url, score)``, in order."""
    titles = repo.page_titles([url for url, _ in scored])
    return [
        {"url": url, "score": score, "title": title}
        for (url, score), title in zip(scored, titles)
    ]


def serve_search(server: Server, user: User, request: Request) -> Response:
    """Paginated full-text search.

    ``limit`` (default: legacy ``k``) and ``offset`` window the ranked
    result list; the response always reports ``total`` matches and
    ``has_more``, so clients page through million-hit archives instead
    of shipping unbounded lists.

    ``mode`` selects the ranking: ``ranked`` (BM25), ``boolean``, or
    ``hybrid`` — reciprocal-rank fusion of the lexical, dense-vector,
    and co-visitation rankings, deduped on canonical URL *before*
    ``total`` is counted (DESIGN.md §13).

    The work is two steps, each cached in the search cache under the
    same validity: the *ranking* — candidates, BM25 or boolean, fusion —
    keyed by the session (query, mode, scope, user for ``mine``), and
    the *page* — window, titles, snippets — keyed by the session plus
    (limit, offset).  So the pages of one query rank once.  Validity is
    the indexer's watermark plus the page/visit change stamps the
    candidate sets read (hybrid entries also fold in the covisits stamp
    and the dense consumer's watermark).
    """
    repo = server.repo
    query = text_field(request, "query")
    limit, offset, mode, scope = search_options(request)
    hybrid = mode == "hybrid"

    session = (query, mode, scope, user["user_id"] if scope == "mine" else "")
    stamps = repo.stamps
    # Titles come from the pages table; mine/community candidate
    # sets additionally read the visits table.
    extra: tuple = (
        (stamps.pages, stamps.visits)
        if scope in ("mine", "community")
        else (stamps.pages,)
    )
    if hybrid:
        # The fused ranking also reads the co-visitation matrix and
        # the dense index; the dense consumer is not in this
        # cache's watch set, so its watermark rides the extra stamp.
        extra = (*extra, stamps.covisits,
                 repo.versions.watermark(server.dense.name))

    def rank() -> tuple[tuple[str, float], ...]:
        candidates: set[str] | None = None
        if scope == "mine":
            candidates = repo.visited_urls(user["user_id"])
        elif scope == "community":
            candidates = repo.visited_urls()
        if mode == "boolean":
            hits = ranked_boolean_search(server.search_engine, query, k=None)
            if candidates is not None:
                hits = [h for h in hits if h.doc_id in candidates]
        else:
            hits = server.search_engine.search(
                query, k=None, candidates=candidates)
        if hybrid:
            # Post-dedup accounting: fusion folds URL variants into
            # one canonical page, so total/has_more count the deduped
            # list — counting first and deduping later drifts the
            # page window.
            return tuple(fuse_hybrid(server, query, hits, candidates))
        return tuple((h.doc_id, h.score) for h in hits)

    def compute() -> Response:
        # On a page miss: the page's token is already taken, so a
        # ranking hit is validated against a token no older than it.
        caches = server.caches
        ranking = (
            rank() if caches is None
            else caches.search.cached(session, rank, extra=extra)
        )
        payloads = hit_payloads(repo, ranking[offset:offset + limit])
        stems = query_stems(query)
        for payload in payloads:
            text = repo.page_text(payload["url"])
            payload["snippet"] = (
                None if text is None else stem_snippet(text, stems).marked())
        return {
            "hits": payloads,
            "total": len(ranking),
            "offset": offset,
            "has_more": offset + len(payloads) < len(ranking),
        }

    return server.cached(
        "search", (*session, limit, offset), compute, extra=extra)


def _top_urls(scores: dict[str, float]) -> list[str]:
    """The :data:`FUSE_DEPTH` best-scored urls, best first (ties by url)."""
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [url for url, _ in ranked[:FUSE_DEPTH]]


def fuse_hybrid(
    server: Server,
    query: str,
    lexical_hits: list[Any],
    candidates: set[str] | None,
) -> list[tuple[str, float]]:
    """Fuse the lexical, dense, and co-visitation rankings (RRF)."""
    vocab = server.vectorizer.vocab
    lexical = [h.doc_id for h in lexical_hits]
    qvec = tfidf(vocab, query_vector(vocab, query))
    # Dense leg with Rocchio-style pseudo-relevance feedback: a
    # two-word query projects to a nearly arbitrary direction in the
    # reduced space, so pull it toward the centroid of the top lexical
    # hits' document vectors — "more documents like what matched",
    # not "documents near these two words".
    qdense = server.dense_index.projector.project(qvec, vocab)
    feedback = [
        vec for vec in (
            server.dense_index.vector(url)
            for url in lexical[:COVISIT_SEEDS]
        ) if vec is not None
    ]
    if feedback:
        centroid = [sum(col) / len(feedback) for col in zip(*feedback)]
        qdense = [
            a + PRF_FEEDBACK * b for a, b in zip(qdense, centroid)
        ]
    dense = [
        url for url, _ in server.dense_index.query(
            qdense, k=FUSE_DEPTH, candidates=candidates,
        )
    ]
    # Trail leg: aggregate the co-visitation neighborhoods of the top
    # lexical hits — pages the community surfs *together with* the
    # textual matches, whether or not their own text matches.
    cov_scores: dict[str, float] = {}
    for seed in lexical[:COVISIT_SEEDS]:
        for other, score in related_scores(
            server.repo, seed,
            now=server.now, decay=server.covisit.decay, k=FUSE_DEPTH,
        ):
            if candidates is not None and other not in candidates:
                continue
            cov_scores[other] = cov_scores.get(other, 0.0) + score
    return rrf_fuse(
        [
            (HYBRID_WEIGHTS["lexical"], lexical),
            (HYBRID_WEIGHTS["dense"], dense),
            (HYBRID_WEIGHTS["covisit"], _top_urls(cov_scores)),
        ],
        key=canonical_url,
    )


def serve_related_pages(server: Server, user: User, request: Request) -> Response:
    """Pages the community surfs together with ``url`` (DESIGN.md §13).

    Fuses the co-visitation neighborhood (what trails say) with the
    dense nearest neighbours (what the text says), reciprocal-rank
    style, deduped on canonical URL.  Returns up to ``k`` rows and the
    post-dedup neighborhood size as ``total``.
    """
    url = text_field(request, "url")
    k = top_k(request, 10)
    canon = canonical_url(url)
    stamps = server.repo.stamps

    def compute() -> Response:
        cov_scores: dict[str, float] = {}
        for seed in sorted({url, canon}):
            for other, score in related_scores(
                server.repo, seed,
                now=server.now, decay=server.covisit.decay, k=FUSE_DEPTH,
            ):
                cov_scores[other] = max(cov_scores.get(other, 0.0), score)
        dense = [
            u for u, _ in server.dense_index.neighbors(url, k=FUSE_DEPTH)
        ]
        fused = [
            (u, score) for u, score in rrf_fuse(
                [
                    (HYBRID_WEIGHTS["lexical"], _top_urls(cov_scores)),
                    (HYBRID_WEIGHTS["dense"], dense),
                ],
                key=canonical_url,
            )
            if canonical_url(u) != canon   # never recommend the page itself
        ]
        rows = hit_payloads(
            server.repo, [(u, round(score, 6)) for u, score in fused[:k]])
        return {"url": url, "related": rows, "total": len(fused)}

    # covisits stamp covers the matrix; pages covers titles.
    return server.cached(
        "related", (canon, k), compute,
        extra=(stamps.covisits, stamps.pages),
    )


def serve_recall(server: Server, user: User, request: Request) -> Response:
    """Temporal recall: full-text search over MY visits around a time."""
    query = text_field(request, "query")
    around = server.now - number_field(request, "around_days_ago") * DAY
    tolerance = number_field(request, "tolerance_days", 45.0) * DAY
    k = top_k(request, 5)
    window = {
        v["url"]: v["at"]
        for v in server.repo.user_visits(
            user["user_id"], since=around - tolerance, until=around + tolerance,
        )
    }
    hits = server.search_engine.search(query, k=k * 3, candidates=set(window))
    ranked = []
    for hit in hits:
        # Prefer hits whose visit time is nearest the asked-about time.
        nearness = 1.0 / (1.0 + abs(window[hit.doc_id] - around) / DAY)
        ranked.append((hit.doc_id, hit.score * (0.5 + nearness)))
    ranked.sort(key=lambda kv: (-kv[1], kv[0]))
    hits = hit_payloads(server.repo, ranked[:k])
    for hit in hits:
        hit["visited_at"] = window[hit["url"]]
    return {"hits": hits}
