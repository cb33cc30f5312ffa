"""Rank fusion and canonical-URL normalization.

Reciprocal-rank fusion (RRF, Cormack et al.) combines rankings from
scorers whose score scales are incomparable — BM25 weights, cosine
similarities, and decayed co-visitation counts here — by discarding the
scores and keeping only the ranks::

    fused(d) = sum over rankings r of  w_r / (k0 + rank_r(d))

``k0`` damps the top-rank dominance (60 is the published default).  A
document missing from a ranking simply contributes nothing for it, so
partial evidence degrades gracefully instead of zeroing the result.

Canonical URLs exist because the same underlying page can reach a
merge point under several spellings: shard-namespaced ids
(``s<shard>/http://...``) from scatter-gather, host-case variants, and
trailing-slash variants.  Fusing or deduplicating on the raw string
double-counts such pages; every cross-source merge in this package keys
on :func:`canonical_url` instead.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from functools import lru_cache
from urllib.parse import urlsplit, urlunsplit

RRF_K0 = 60.0

_SHARD_PREFIX = re.compile(r"^s\d+/")
_DEFAULT_PORTS = {"http": ":80", "https": ":443"}


@lru_cache(maxsize=1 << 15)
def canonical_url(url: str) -> str:
    """One canonical spelling for every variant of the same page (pure,
    and asked of the same few dozen urls by every fusion: memoized).

    >>> canonical_url("s3/HTTP://A.com:80/x#frag")
    'http://a.com/x'
    >>> canonical_url("http://a.com/x/") == canonical_url("http://a.com/x")
    True
    >>> canonical_url("http://a.com/") == canonical_url("http://a.com")
    True
    """
    url = _SHARD_PREFIX.sub("", url.strip())
    try:
        parts = urlsplit(url)
    except ValueError:
        return url
    if not parts.scheme:
        return url
    scheme = parts.scheme.lower()
    netloc = parts.netloc.lower()
    default = _DEFAULT_PORTS.get(scheme)
    if default and netloc.endswith(default):
        netloc = netloc[: -len(default)]
    path = parts.path
    if path.endswith("/"):
        path = path.rstrip("/")
    return urlunsplit((scheme, netloc, path, parts.query, ""))


def rrf_fuse(
    rankings: Sequence[tuple[float, Iterable[str]]],
    *,
    k0: float = RRF_K0,
    key: "callable | None" = None,
) -> list[tuple[str, float]]:
    """Fuse weighted rankings; returns ``[(id, fused_score), ...]``.

    Each entry of *rankings* is ``(weight, ids_best_first)``.  When
    *key* is given, ids mapping to the same key are treated as one
    document (first spelling seen wins) — this is where hybrid search
    folds URL variants together *before* anything is counted.

    >>> rrf_fuse([(1.0, ["a", "b"]), (1.0, ["b", "c"])], k0=0.0)
    [('b', 1.5), ('a', 1.0), ('c', 0.5)]
    """
    scores: dict[str, float] = {}
    spelling: dict[str, str] = {}
    for weight, ids in rankings:
        if weight <= 0.0:
            continue
        seen: set[str] = set()
        rank = 0
        for doc_id in ids:
            k = key(doc_id) if key is not None else doc_id
            if k in seen:
                continue
            seen.add(k)
            rank += 1
            spelling.setdefault(k, doc_id)
            scores[k] = scores.get(k, 0.0) + weight / (k0 + rank)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(spelling[k], score) for k, score in ranked]
