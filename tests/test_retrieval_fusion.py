"""Unit tests for the hybrid-retrieval primitives: canonical URLs,
reciprocal-rank fusion, and the dense random-projection index."""

import pytest

from repro.retrieval.dense import (
    DenseProjector,
    DenseVectorIndex,
    _rademacher,
)
from repro.retrieval.fusion import canonical_url, rrf_fuse
from repro.storage import open_engine


# -- canonical_url ------------------------------------------------------------

def test_canonical_url_folds_equivalent_spellings():
    spellings = [
        "http://Example.COM/Path",
        "http://example.com/Path/",
        "http://example.com:80/Path",
        "s3/http://example.com/Path",
        "http://example.com/Path#frag",
    ]
    canon = {canonical_url(u) for u in spellings}
    assert canon == {"http://example.com/Path"}


def test_canonical_url_preserves_distinctions_that_matter():
    # Path case, query strings, and different hosts stay distinct.
    assert canonical_url("http://a.com/x") != canonical_url("http://a.com/X")
    assert canonical_url("http://a.com/x?q=1") != canonical_url("http://a.com/x")
    assert canonical_url("http://a.com/x") != canonical_url("http://b.com/x")
    assert canonical_url("https://a.com/x") != canonical_url("http://a.com/x")


def test_canonical_url_strips_default_port_per_scheme_only():
    assert canonical_url("https://a.com:443/x") == canonical_url("https://a.com/x")
    # :443 on http is NOT the default port and must survive.
    assert canonical_url("http://a.com:443/x") != canonical_url("http://a.com/x")


# -- rrf_fuse -----------------------------------------------------------------

def test_rrf_single_ranking_preserves_order():
    fused = rrf_fuse([(1.0, ["a", "b", "c"])])
    assert [u for u, _ in fused] == ["a", "b", "c"]


def test_rrf_agreement_beats_single_list_rank():
    # "b" is ranked 2nd by both lists; "a" is 1st in one, absent in the
    # other.  With equal weights agreement wins.
    fused = rrf_fuse([(1.0, ["a", "b"]), (1.0, ["c", "b"])])
    assert fused[0][0] == "b"


def test_rrf_weights_scale_contributions():
    # A zero/negative weight ranking contributes nothing.
    fused = rrf_fuse([(1.0, ["a"]), (0.0, ["b", "b2"]), (-1.0, ["c"])])
    assert [u for u, _ in fused] == ["a"]


def test_rrf_dedups_on_key_before_counting_ranks():
    # The two spellings are ONE document: the second spelling must not
    # consume a rank slot, so "other" keeps rank 2, not 3.
    fused = rrf_fuse(
        [(1.0, ["http://a.com/x", "http://A.com/x/", "http://other.com/"])],
        key=canonical_url,
    )
    urls = [u for u, _ in fused]
    assert urls == ["http://a.com/x", "http://other.com/"]
    # First spelling wins the display form.
    assert "http://A.com/x/" not in urls
    # "other" scored as rank 2 (1/(60+2)), not rank 3.
    assert fused[1][1] == pytest.approx(1.0 / 62.0)


def test_rrf_cross_ranking_dedup_keeps_first_spelling():
    fused = rrf_fuse(
        [(1.0, ["http://a.com/x"]), (1.0, ["http://A.com/x/"])],
        key=canonical_url,
    )
    assert len(fused) == 1
    assert fused[0][0] == "http://a.com/x"
    # Both rankings' rank-1 contributions accumulate on the one doc.
    assert fused[0][1] == pytest.approx(2.0 / 61.0)


def test_rrf_deterministic_tie_break():
    a = rrf_fuse([(1.0, ["x", "y"]), (1.0, ["y", "x"])])
    b = rrf_fuse([(1.0, ["x", "y"]), (1.0, ["y", "x"])])
    assert a == b
    assert [u for u, _ in a] == ["x", "y"]  # tie -> lexicographic


# -- dense projection ---------------------------------------------------------

def test_rademacher_is_deterministic_and_scaled():
    a = _rademacher("term:7", 64)
    b = _rademacher("term:7", 64)
    assert a == b
    assert len(a) == 64
    scale = abs(a[0])
    assert all(abs(x) == scale for x in a)
    assert sum(x * x for x in a) == pytest.approx(1.0)


def test_projection_is_normalized_and_stable():
    p = DenseProjector(dims=32)
    v1 = p.project({1: 2.0, 5: 1.0})
    v2 = DenseProjector(dims=32).project({1: 2.0, 5: 1.0})
    assert v1 == v2
    assert sum(x * x for x in v1) == pytest.approx(1.0)
    assert p.project({}) == [0.0] * 32


def test_similar_sparse_vectors_stay_close_in_dense_space():
    p = DenseProjector()
    base = {i: 1.0 for i in range(20)}
    near = {**base, 99: 0.3}
    far = {i: 1.0 for i in range(100, 120)}
    vb, vn, vf = p.project(base), p.project(near), p.project(far)
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))  # noqa: E731
    assert dot(vb, vn) > 0.9
    assert dot(vb, vn) > dot(vb, vf) + 0.5


# -- dense index --------------------------------------------------------------

def _corpus(n):
    # n documents in two well-separated topic blocks.
    return {
        f"http://t{i % 2}.com/{i}": {
            j + (i % 2) * 1000: 1.0 + (i + j) % 3 for j in range(12)
        }
        for i in range(n)
    }


def _query(index, sparse, **kwargs):
    return index.query(index.projector.project(sparse), **kwargs)


def test_dense_index_query_finds_same_topic_docs():
    index = DenseVectorIndex(dims=64)
    docs = _corpus(30)
    index.add_many(docs.items())
    hits = _query(index, {j: 1.0 for j in range(12)}, k=5)
    assert len(hits) == 5
    assert all(url.startswith("http://t0.com/") for url, _ in hits)


def test_dense_index_neighbors_excludes_self():
    index = DenseVectorIndex(dims=64)
    index.add_many(_corpus(10).items())
    neighbors = index.neighbors("http://t0.com/0", k=3)
    assert neighbors
    assert all(u != "http://t0.com/0" for u, _ in neighbors)


def test_dense_index_candidates_filter_applies():
    index = DenseVectorIndex(dims=64)
    docs = _corpus(20)
    index.add_many(docs.items())
    allowed = {"http://t1.com/1", "http://t1.com/3"}
    hits = _query(index, {j: 1.0 for j in range(12)}, k=10, candidates=allowed)
    assert {u for u, _ in hits} <= allowed


def test_dense_index_persists_through_store(tmp_path):
    kv = open_engine("btree", tmp_path / "kv")
    index = DenseVectorIndex(kv, dims=32)
    docs = _corpus(8)
    index.add_many(docs.items())
    before = _query(index, {j: 1.0 for j in range(12)}, k=4)

    reloaded = DenseVectorIndex(kv, dims=32)
    assert len(reloaded._vectors) == len(docs)
    after = _query(reloaded, {j: 1.0 for j in range(12)}, k=4)
    assert [u for u, _ in after] == [u for u, _ in before]
    for (_, s1), (_, s2) in zip(before, after):
        assert s2 == pytest.approx(s1)
    kv.close()


def test_dense_index_top_hit_matches_brute_force():
    # 600 documents: the top hit of an on-topic query is brute force's.
    index = DenseVectorIndex(dims=64)
    docs = _corpus(600)
    index.add_many(docs.items())
    assert len(index._vectors) == 600
    query = {j: 1.0 for j in range(12)}
    hits = _query(index, query, k=3)
    vec = index.projector.project(query)
    exact = sorted(
        ((u, sum(a * b for a, b in zip(vec, v))) for u, v in index._vectors.items()),
        key=lambda t: (-t[1], t[0]),
    )
    assert hits[0][0] == exact[0][0]
