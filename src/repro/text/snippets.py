"""Query-biased result snippets for the search tab.

A hit list of bare URLs is unusable; each result gets a short excerpt
centered on the window of the page with the densest query-term
coverage, with matched words marked.  Matching happens on stems, so
"optimizing" highlights for the query "optimization".
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from functools import lru_cache

from .tokenize import porter_stem, tokenize, words

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")

#: What :meth:`Snippet.marked` puts around a highlighted word.
OPEN_MARK, CLOSE_MARK = "[", "]"


@dataclass(frozen=True)
class Snippet:
    """An excerpt with highlight spans over its own text."""

    text: str
    highlights: tuple[tuple[int, int], ...]  # (start, end) char offsets
    leading_ellipsis: bool
    trailing_ellipsis: bool

    def marked(self) -> str:
        """The excerpt with highlight markers inserted (for terminals)."""
        out: list[str] = []
        cursor = 0
        for start, end in self.highlights:
            out.append(self.text[cursor:start])
            out.append(OPEN_MARK + self.text[start:end] + CLOSE_MARK)
            cursor = end
        out.append(self.text[cursor:])
        body = "".join(out)
        prefix = "... " if self.leading_ellipsis else ""
        suffix = " ..." if self.trailing_ellipsis else ""
        return prefix + body + suffix


@lru_cache(maxsize=512)
def _token_table(text: str) -> tuple[array, tuple[str, ...]]:
    """Start offset and stem of every token of *text*, tabulated once.

    Keyed by the page text itself, so a re-crawled page is simply a
    different key: nothing to invalidate, nothing to go stale.  Kept
    flat to stay under 16 bytes a token: 4-byte offsets, and stems that
    are references to the strings the :func:`porter_stem` memo returns.
    Token ends are not stored; a snippet re-matches the few it needs.
    """
    starts = array("I")
    stems = []
    for match in _TOKEN_RE.finditer(text):
        starts.append(match.start())
        stems.append(porter_stem(match.group().lower()))
    return starts, tuple(stems)


def query_stems(query: str) -> frozenset[str]:
    """The stems a snippet for *query* highlights: its index terms."""
    return frozenset(tokenize(query))


def make_snippet(
    text: str,
    query: str,
    *,
    window: int = 30,
) -> Snippet:
    """Build a query-biased snippet of about *window* words.

    Falls back to the document head when no query term occurs.
    """
    return stem_snippet(text, query_stems(query), window=window)


def stem_snippet(
    text: str,
    stems: frozenset[str],
    *,
    window: int = 30,
) -> Snippet:
    """:func:`make_snippet` for a query already stemmed by
    :func:`query_stems`, so a page of hits stems its query once.

    The hit positions come from one ``tuple.index`` walk (in C) per
    query stem, so the Python-level work is per hit, not per token.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    starts, table = _token_table(text)
    n = len(starts)
    if not n:
        return Snippet(text[:200], (), False, len(text) > 200)
    hits: list[int] = []
    at = table.index
    for stem in stems:
        i = -1
        try:
            while True:
                i = at(stem, i + 1)
                hits.append(i)
        except ValueError:
            pass
    hits.sort()

    # Densest window of `window` tokens by hit count (earliest wins ties).
    # The earliest densest window either starts the page or ends on a
    # hit, so only windows ending on a hit are candidates; `lo` trails
    # as the first hit still inside the candidate.
    best_start, best_hits, first, lo = 0, 0, 0, 0
    for j, hit in enumerate(hits):
        start = hit - window + 1
        if start < 0:
            start = 0
        while hits[lo] < start:
            lo += 1
        if j - lo + 1 > best_hits:
            best_hits, best_start, first = j - lo + 1, start, lo

    stop = min(best_start + window, n)
    chunk_start = starts[best_start]
    token_at = _TOKEN_RE.match
    highlights = tuple([
        (start - chunk_start, end - chunk_start)
        for start, end in [
            token_at(text, starts[i]).span()
            for i in hits[first: first + best_hits]
        ]
    ])
    return Snippet(
        text=text[chunk_start:token_at(text, starts[stop - 1]).end()],
        highlights=highlights,
        leading_ellipsis=best_start > 0,
        trailing_ellipsis=stop < n,
    )


__all__ = ["Snippet", "make_snippet", "query_stems", "stem_snippet", "words"]
