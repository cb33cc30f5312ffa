"""Ranked full-text search over the inverted index.

Implements the "standard full-text search over all pages visited" (§2)
with BM25 (Robertson/Sparck Jones, ``k1 = 1.5``, ``b = 0.75``).  The
ranker clamps document frequencies into ``[0, num_docs]`` before the idf
computation, so degenerate corpora (a single document, or a term present
in *every* document) rank sanely instead of inverting or zeroing the
ordering.

Queries go through the same tokenizer/stemmer as documents, so "optimizing
compilers" matches "compiler optimization".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import IndexError_
from .index import InvertedIndex
from .tokenize import tokenize

#: BM25 term-frequency saturation and length normalisation.
K1 = 1.5
B = 0.75


@dataclass(frozen=True)
class SearchHit:
    """One ranked result."""

    doc_id: str
    score: float


class SearchEngine:
    """BM25 retrieval on top of an :class:`InvertedIndex`."""

    def __init__(self, index: InvertedIndex) -> None:
        self.index = index

    def search(
        self,
        query: str,
        *,
        k: int | None = 10,
        candidates: set[str] | None = None,
    ) -> list[SearchHit]:
        """Top-*k* documents for *query* (``k=None`` ranks every match,
        which the paginated search servlet uses to report totals).

        ``candidates`` restricts scoring to a given doc-id set — Memex uses
        this to search within one user's trail or one topic's pages.
        """
        terms = tokenize(query)
        if not terms:
            return []
        # Pin one consistent index view for the whole scoring pass: a
        # concurrent add_document must not land between reading a posting
        # list and reading the doc lengths it references.
        with self.index.lock:
            scores = self._bm25(terms, candidates)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [SearchHit(doc_id, score) for doc_id, score in ranked[:k]]

    def _bm25(
        self, terms: list[str], candidates: set[str] | None
    ) -> dict[str, float]:
        n = self.index.num_docs
        if n == 0:
            return {}
        avgdl = self.index.avg_doc_length() or 1.0
        lengths = self.index.doc_lengths()
        scores: dict[str, float] = {}
        for term in terms:
            postings = self.index.postings(term)
            if not postings:
                continue
            idf = self._idf(len(postings), n)
            for doc_id, tf in postings.items():
                if candidates is not None and doc_id not in candidates:
                    continue
                dl = lengths.get(doc_id)
                if dl is None:
                    raise IndexError_(f"document {doc_id!r} not indexed")
                denom = tf + K1 * (1.0 - B + B * dl / avgdl)
                scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (K1 + 1.0) / denom
        return scores

    @staticmethod
    def _clamped_df(df: int, n: int) -> int:
        """Document frequency clamped into ``[0, n]``.

        Transient index skew (a posting visible before its doc-length
        record, or vice versa) and legacy stores can report ``df > n``;
        an unclamped value drives idf negative and inverts rankings.
        """
        return min(max(int(df), 0), n)

    @classmethod
    def _idf(cls, df: int, n: int) -> float:
        """BM25's idf, positive for every clamped ``df``."""
        df = cls._clamped_df(df, n)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))
