"""Tests for sparse-vector operations."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.vectorize import (
    add,
    centroid,
    cosine,
    count_vector,
    dot,
    normalize,
    query_vector,
    text_vector,
    tfidf,
    top_terms,
)
from repro.text.vocabulary import Vocabulary


def norm(vec):
    return math.hypot(*vec.values())

sparse = st.dictionaries(
    st.integers(0, 50),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    max_size=20,
)
nonneg_sparse = st.dictionaries(
    st.integers(0, 50),
    st.floats(min_value=0, max_value=10, allow_nan=False),
    max_size=20,
)


def test_count_vector_counts():
    v = Vocabulary()
    vec = count_vector(v, ["a", "b", "a"])
    assert vec == {v.id("a"): 2.0, v.id("b"): 1.0}


def test_text_vector_tokenizes():
    v = Vocabulary()
    vec = text_vector(v, "Compilers compile compilers.")
    # All three tokens stem to the same id.
    assert len(vec) == 1
    assert sum(vec.values()) == 3.0


def test_query_vector_reads_the_vocabulary_and_drops_unseen_words():
    v = Vocabulary()
    v.add_document(["compil"])
    v.add("unseen")     # interned, but no document contains it
    vec = query_vector(v, "Compilers and zygomorphic unseen xylophones")
    assert vec == {v.id("compil"): 1.0}
    assert len(v) == 2 and v.num_docs == 1


def test_tfidf_weights_rare_terms_higher():
    v = Vocabulary()
    v.add_document(["common", "rare"])
    v.add_document(["common"])
    v.add_document(["common"])
    w = tfidf(v, {v.id("common"): 1.0, v.id("rare"): 1.0})
    assert w[v.id("rare")] > w[v.id("common")]


def test_norm_and_normalize():
    unit = normalize({0: 3.0, 1: 4.0})
    assert norm(unit) == pytest.approx(1.0)
    assert normalize({}) == {}
    assert normalize({0: 0.0}) == {}


def test_dot_and_cosine_basic():
    a = {0: 1.0, 1: 2.0}
    b = {1: 3.0, 2: 4.0}
    assert dot(a, b) == pytest.approx(6.0)
    assert cosine(a, a) == pytest.approx(1.0)
    assert cosine(a, {2: 1.0}) == 0.0
    assert cosine({}, a) == 0.0


def test_add_with_scale():
    out = add({0: 1.0}, {0: 2.0, 1: 5.0}, scale=0.5)
    assert out == {0: 2.0, 1: 2.5}


def test_centroid():
    c = centroid([{0: 2.0}, {0: 4.0, 1: 2.0}])
    assert c == {0: 3.0, 1: 1.0}
    assert centroid([]) == {}


def test_top_terms_orders_by_weight():
    v = Vocabulary()
    for t in ["low", "high", "mid"]:
        v.add(t)
    vec = {v.id("low"): 0.1, v.id("high"): 9.0, v.id("mid"): 3.0}
    assert top_terms(v, vec, k=2) == ["high", "mid"]


@given(sparse, sparse)
def test_dot_is_symmetric(a, b):
    assert dot(a, b) == pytest.approx(dot(b, a))


@given(nonneg_sparse, nonneg_sparse)
def test_cosine_bounded_for_nonnegative(a, b):
    c = cosine(a, b)
    assert 0.0 <= c <= 1.0 + 1e-9


@given(nonneg_sparse)
def test_normalize_yields_unit_norm(vec):
    unit = normalize(vec)
    if unit:
        assert norm(unit) == pytest.approx(1.0)


@given(sparse, sparse)
def test_add_matches_componentwise(a, b):
    out = add(a, b)
    for tid in set(a) | set(b):
        assert out[tid] == pytest.approx(a.get(tid, 0.0) + b.get(tid, 0.0))


@given(st.lists(nonneg_sparse, min_size=1, max_size=8))
def test_centroid_norm_bounded_by_max_member(vectors):
    c = centroid(vectors)
    assert norm(c) <= max(norm(v) for v in vectors) + 1e-9
