"""Tests for the term dictionary."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.text.vocabulary import Vocabulary


def test_add_interns_terms():
    v = Vocabulary()
    a = v.add("apple")
    b = v.add("banana")
    assert a != b
    assert v.add("apple") == a
    assert (a, b) == (0, 1)
    assert v.term(a) == "apple"
    assert v.id("banana") == b
    assert v.id("cherry") is None


def test_add_document_counts_and_df():
    v = Vocabulary()
    counts = v.add_document(["apple", "apple", "banana"])
    assert counts[v.id("apple")] == 2
    assert counts[v.id("banana")] == 1
    v.add_document(["apple"])
    assert v.num_docs == 2
    assert v.doc_freq(v.id("apple")) == 2
    assert v.doc_freq(v.id("banana")) == 1


def test_idf_orders_by_rarity():
    v = Vocabulary()
    v.add_document(["common", "rare"])
    v.add_document(["common"])
    v.add_document(["common"])
    assert v.idf(v.id("rare")) > v.idf(v.id("common"))
    assert v.idf(v.id("common")) >= 1.0


def test_serialization_roundtrip():
    v = Vocabulary()
    v.add_document(["alpha", "beta", "alpha"])
    v.add_document(["beta"])
    # A vocabulary saved before the freeze mode was deleted carries the flag.
    w = Vocabulary.from_dict({**v.to_dict(), "frozen": False})
    assert w.to_dict() == v.to_dict()
    assert w.num_docs == 2
    assert w.id("alpha") == v.id("alpha")
    assert w.doc_freq(w.id("beta")) == 2
    assert math.isclose(w.idf(w.id("alpha")), v.idf(v.id("alpha")))


@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=50))
def test_ids_are_dense_and_stable(terms):
    v = Vocabulary()
    for t in terms:
        v.add(t)
    distinct = list(dict.fromkeys(terms))
    assert v.to_dict()["terms"] == distinct
    for i, t in enumerate(distinct):
        assert v.id(t) == i
        assert v.term(i) == t


@given(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=10), max_size=20))
def test_doc_freq_never_exceeds_num_docs(docs):
    v = Vocabulary()
    for doc in docs:
        v.add_document(doc)
    for tid in range(len(v.to_dict()["terms"])):
        assert 1 <= v.doc_freq(tid) <= v.num_docs
