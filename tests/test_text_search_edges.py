"""Degenerate-IDF edges in ranked search.

Failing-first regression tests for the ranking-correctness sweep:
document frequencies were fed to the idf computation unclamped, so a
skewed ``df > num_docs`` drove idf negative and inverted rankings.  The
BM25 ranker must clamp ``df`` into ``[0, n]``, in ranked search and in
the boolean search that ranks its matches with it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.index import InvertedIndex
from repro.text.query import ranked_boolean_search
from repro.text.search import SearchEngine

WORDS = ["jazz", "blues", "rock", "piano", "guitar", "album"]


def _engine(docs: dict[str, str]) -> SearchEngine:
    index = InvertedIndex()
    for doc_id, text in docs.items():
        index.add_document(doc_id, text)
    return SearchEngine(index)


# -- df clamping ---------------------------------------------------------------


def test_idf_positive_when_df_exceeds_n():
    """Skewed df > num_docs must clamp instead of going negative."""
    assert SearchEngine._idf(5, 1) > 0.0
    assert SearchEngine._idf(5, 1) == SearchEngine._idf(1, 1)


def test_idf_positive_for_every_doc_term():
    assert SearchEngine._idf(3, 3) > 0.0
    assert SearchEngine._idf(0, 0) > 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
def test_idf_always_positive_and_monotone(df, n):
    assert SearchEngine._idf(df, n) > 0.0
    if df + 1 <= n:
        assert SearchEngine._idf(df + 1, n) <= SearchEngine._idf(df, n)


def test_every_doc_term_keeps_sane_ranking_both_methods():
    """A term present in every document still ranks by relevance."""
    docs = {
        "heavy": "jazz jazz jazz jazz",
        "light": "jazz blues rock piano guitar album " * 3,
    }
    engine = _engine(docs)
    for hits in (engine.search("jazz"), ranked_boolean_search(engine, "jazz")):
        assert [h.doc_id for h in hits] == ["heavy", "light"]
        assert all(h.score > 0.0 for h in hits)


def test_single_document_corpus_ranks_both_methods():
    engine = _engine({"only": "jazz blues"})
    for hits in (engine.search("jazz"), ranked_boolean_search(engine, "jazz")):
        assert [h.doc_id for h in hits] == ["only"]
        assert hits[0].score > 0.0
