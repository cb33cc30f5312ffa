"""Tests for the inverted index and the ranked search engine."""

import pytest

from repro.errors import IndexError_
from repro.storage import open_engine
from repro.storage.codec import decode, encode
from repro.text.index import InvertedIndex
from repro.text.search import SearchEngine

DOCS = {
    "u:classical": "Classical music composers: Bach, Mozart, Beethoven symphonies",
    "u:jazz": "Jazz music improvisation saxophone Coltrane",
    "u:compilers": "Compiler optimization passes: register allocation and inlining",
    "u:cycling": "Recreational cycling routes and bicycle maintenance",
    "u:mixed": "Music for cycling: playlists and classical remixes",
}


@pytest.fixture
def index():
    idx = InvertedIndex()
    for doc_id, text in DOCS.items():
        idx.add_document(doc_id, text)
    return idx


def test_add_and_stats(index):
    assert index.num_docs == 5
    assert index.doc_lengths()["u:jazz"] == 5
    assert "u:ghost" not in index.doc_lengths()
    assert index.avg_doc_length() > 0
    assert sorted(index.document_ids()) == sorted(DOCS)


def test_postings_are_stemmed(index):
    # "composers" stems like "composer"; query through the same stemmer.
    from repro.text.tokenize import porter_stem
    postings = index.postings(porter_stem("music"))
    assert set(postings) == {"u:classical", "u:jazz", "u:mixed"}
    assert len(index.postings(porter_stem("cycling"))) == 2


def test_reindex_replaces_content(index):
    index.add_document("u:jazz", "completely different words here")
    from repro.text.tokenize import porter_stem
    assert "u:jazz" not in index.postings(porter_stem("music"))
    assert index.num_docs == 5


def test_empty_posting_lists_are_deleted(index):
    # Re-indexing the only cycling docs without it must delete the
    # term's posting key.
    index.add_document("u:cycling", "bicycle maintenance")
    index.add_document("u:mixed", "playlists")
    from repro.text.tokenize import porter_stem
    term = porter_stem("cycling")
    assert term not in set(index.terms())


def test_index_persists_in_kvstore(tmp_path):
    kv = open_engine("btree", tmp_path / "kv.log")
    idx = InvertedIndex(kv)
    idx.add_document("d1", "persistent music")
    kv.close()
    kv2 = open_engine("btree", tmp_path / "kv.log")
    idx2 = InvertedIndex(kv2)
    assert idx2.num_docs == 1
    engine = SearchEngine(idx2)
    assert engine.search("music")[0].doc_id == "d1"
    kv2.close()


def _stored_lengths(idx):
    """``{doc_id: length}`` as the ``idx.docs`` records hold them."""
    return {key.decode(): decode(value) for key, value in idx._docs.items()}


def _brute_force_totals(idx):
    lengths = list(_stored_lengths(idx).values())
    assert idx.doc_lengths() == _stored_lengths(idx)
    return len(lengths), (sum(lengths) / len(lengths) if lengths else 0.0)


def test_a_posting_naming_a_document_with_no_length_is_an_index_error():
    idx = InvertedIndex()
    idx.add_document("d1", "persistent music archive")
    idx._post.put(b"music", encode({"d1": 1, "ghost": 1}))   # torn store
    with pytest.raises(IndexError_, match="ghost"):
        SearchEngine(idx).search("music")


def test_running_doc_totals_equal_brute_force(tmp_path):
    kv = open_engine("btree", tmp_path / "kv.log")
    idx = InvertedIndex(kv)
    assert (idx.num_docs, idx.avg_doc_length()) == (0, 0.0)
    steps = [
        lambda: idx.add_document("d1", "persistent music archive"),
        lambda: idx.add_document("d2", "jazz"),
        lambda: idx.add_document("d1", "a much longer replacement text about music"),
        lambda: idx.add_document("d3", ""),
        lambda: idx.add_document("d2", "jazz returns again"),
    ]
    for step in steps:
        step()
        assert (idx.num_docs, idx.avg_doc_length()) == _brute_force_totals(idx)
    before = (idx.num_docs, idx.avg_doc_length())
    kv.close()

    kv2 = open_engine("btree", tmp_path / "kv.log")
    idx2 = InvertedIndex(kv2)            # totals come from the stored records
    assert (idx2.num_docs, idx2.avg_doc_length()) == before
    idx2.add_document("d1", "short")
    idx2.add_document("d4", "appended after the reopen")
    assert (idx2.num_docs, idx2.avg_doc_length()) == _brute_force_totals(idx2)
    kv2.close()


def test_doc_totals_are_re_read_after_a_failed_store_write():
    idx = InvertedIndex()
    idx.add_document("d1", "persistent music archive")

    def failing_put_many(items):
        raise OSError("disk full")

    # The group commit is the one call that writes a batch.
    real_put_many, idx._kv.put_many = idx._kv.put_many, failing_put_many
    with pytest.raises(OSError):
        idx.add_document("d2", "jazz music")
    idx._kv.put_many = real_put_many
    assert (idx.num_docs, idx.avg_doc_length()) == (1, 3.0)
    assert idx.doc_lengths() == {"d1": 3}


@pytest.fixture
def engine(index):
    return SearchEngine(index)


def test_bm25_finds_topical_doc(engine):
    hits = engine.search("compiler optimization")
    assert hits[0].doc_id == "u:compilers"
    assert hits[0].score > 0


def test_search_morphological_match(engine):
    hits = engine.search("optimizing compilers")
    assert hits[0].doc_id == "u:compilers"


def test_search_ranks_multi_term_overlap_higher(engine):
    hits = engine.search("classical music")
    ids = [h.doc_id for h in hits]
    # Both docs matching both query terms outrank the single-term match.
    assert set(ids[:2]) == {"u:classical", "u:mixed"}
    assert ids.index("u:jazz") > 1


def test_search_k_limits_results(engine):
    assert len(engine.search("music", k=1)) == 1


def test_search_candidates_filter(engine):
    hits = engine.search("music", candidates={"u:jazz"})
    assert [h.doc_id for h in hits] == ["u:jazz"]


def test_search_empty_and_unknown_queries(engine):
    assert engine.search("") == []
    assert engine.search("the and of") == []  # all stopwords
    assert engine.search("zzzxqwerty") == []


def test_search_on_empty_index():
    engine = SearchEngine(InvertedIndex())
    assert engine.search("anything") == []


def test_scores_sorted_descending(engine):
    hits = engine.search("music classical cycling", k=10)
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)
