"""The index's group commit against the per-document code it replaced.

``mining_reference._reference_add_document`` is the body
``InvertedIndex`` had when every posting list touched was its own store
write (and its own fsync): whatever batches the index is given, the term
store must hold the bytes the per-document code would have left.  The
crash-order test tears the last batch's log at every record boundary.
"""

import shutil
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.storage.kvstore import KVStore
from repro.text.index import InvertedIndex
from repro.text.search import SearchEngine

from .mining_reference import _reference_add_document
from .test_text_index_search import _brute_force_totals


def _stored(idx):
    """Every record of the index's store, all namespaces."""
    return dict(idx._kv.cursor())


# -- differential sweep -------------------------------------------------------

_WORDS = ["jazz", "music", "musical", "archive", "trail", "surfing",
          "compilers", "cycling", "the", "and"]
_TEXTS = st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join)
_DOC_IDS = st.sampled_from(["d0", "d1", "d2", "d3", "d4"])
_BATCHES = st.lists(
    st.lists(st.tuples(_DOC_IDS, _TEXTS), max_size=6), min_size=1, max_size=5)


@given(batches=_BATCHES)
@settings(max_examples=120, deadline=None)
def test_batches_store_what_per_document_adds_would(batches):
    """Doc ids twice in one batch (last wins), re-adds of indexed docs,
    empty texts, empty batches."""
    new = InvertedIndex()
    ref = InvertedIndex()
    for batch in batches:
        expected = [_reference_add_document(ref, d, t) for d, t in batch]
        assert new.add_documents(batch) == expected
        assert _stored(new) == _stored(ref)
        assert (new.num_docs, new.avg_doc_length()) == _brute_force_totals(new)


def test_add_document_is_the_one_document_batch():
    new, ref = InvertedIndex(), InvertedIndex()
    for doc_id, text in [("a", "jazz music"), ("b", "music archive"),
                         ("a", "surfing trail"), ("c", "")]:
        assert new.add_document(doc_id, text) == \
            _reference_add_document(ref, doc_id, text)
    assert _stored(new) == _stored(ref)


def test_re_adds_cost_one_posting_scan_per_batch(monkeypatch):
    idx = InvertedIndex()
    idx.add_documents([(f"d{i}", "jazz music archive") for i in range(6)])
    scans = []
    real_items = idx._post.items
    monkeypatch.setattr(
        idx._post, "items", lambda: scans.append(1) or real_items())
    idx.add_documents([("new1", "jazz"), ("new2", "trail")])
    assert scans == []                      # nothing to replace, no scan
    idx.add_documents(
        [(f"d{i}", "surfing trail") for i in range(6)] + [("new3", "jazz")])
    assert scans == [1]                     # six replaced docs, one scan
    assert idx.postings("jazz") == {"new1": 1, "new3": 1}


def test_a_batch_is_one_store_write(tmp_path):
    metrics = MetricsRegistry()
    kv = KVStore(tmp_path / "terms.kv", sync=True, metrics=metrics)
    idx = InvertedIndex(kv)
    idx.add_documents(
        [(f"d{i}", f"jazz music archive number{i}") for i in range(20)])
    assert metrics.counter_value("storage.wal.fsyncs", log="terms.kv") == 1
    kv.close()


# -- crash order --------------------------------------------------------------

_HEADER = struct.Struct("<II")
_SETTLED = [("s1", "jazz music archive"), ("s2", "surfing trail music"),
            ("s3", "compilers archive")]


def _record_boundaries(raw, start):
    """Offsets in ``raw[start:]`` at which a log record ends (and
    *start* itself: nothing of the batch survived)."""
    cuts, at = [start], start
    while at < len(raw):
        _, length = _HEADER.unpack_from(raw, at)
        at += _HEADER.size + length
        cuts.append(at)
    assert at == len(raw)
    return cuts


def _add_one(idx):
    idx.add_document("n1", "jazz cycling trail trail")
    return ["jazz", "cycling", "trail"]


def _add_batch(idx):
    idx.add_documents([
        ("n1", "jazz cycling trail trail"),
        ("s2", "cycling replaces surfing"),      # a re-add
        ("n2", ""),
        ("n3", "archive music musical"),
    ])
    return ["jazz", "cycling", "trail", "replaces", "surfing", "archive",
            "music", "musical"]


@pytest.mark.parametrize("last_batch", [_add_one, _add_batch])
def test_a_torn_batch_never_leaves_a_posting_without_a_length(
        tmp_path, last_batch):
    """Lengths are logged before the postings naming their
    documents, so whichever prefix of the last batch survives a crash,
    every query still scores — and adding the batch again leaves the
    bytes of a run that never crashed."""
    path = tmp_path / "terms.kv"
    # Compaction off: the last batch must stay the tail of the log.
    kv = KVStore(path, compact_garbage_ratio=2.0)
    idx = InvertedIndex(kv)
    for doc_id, text in _SETTLED:
        idx.add_document(doc_id, text)
    settled_bytes = path.stat().st_size
    words = last_batch(idx)
    clean = _stored(idx)
    kv.close()
    raw = path.read_bytes()
    cuts = _record_boundaries(raw, settled_bytes)
    assert len(cuts) > 4

    for cut in cuts:
        torn = tmp_path / f"torn-{cut}.kv"
        shutil.copyfile(path, torn)
        with open(torn, "r+b") as fh:
            fh.truncate(cut)
        kv = KVStore(torn, compact_garbage_ratio=2.0)
        idx = InvertedIndex(kv)
        engine = SearchEngine(idx)
        for word in words:
            engine.search(word)                         # must not raise
        assert (idx.num_docs, idx.avg_doc_length()) == _brute_force_totals(idx)
        last_batch(idx)
        assert _stored(idx) == clean, f"cut at {cut}"
        kv.close()
