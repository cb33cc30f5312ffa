"""The dense leg is a C loop — and answers as the interpreted one did.

``DenseProjector.project`` sums by column, ``_dot`` / ``_signature`` go
through ``sum(map(mul, ...))`` and ``DenseVectorIndex.query`` scores a
pool with one ``math.dist`` per document.  The bodies they replaced live
in ``dense_reference``; what the index stores must equal them bit for
bit, and what it ranks must equal them row for row (cosines to 1e-12:
the distance identity rounds differently from a dot product, in the
sixteenth digit).
"""

import json
import random
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import MemexSystem
from repro.retrieval.dense import (
    EXACT_SCAN_THRESHOLD,
    DenseProjector,
    DenseVectorIndex,
    _dot,
)
from repro.storage import open_engine
from repro.storage.codec import encode
from repro.storage.engine import Namespace
from repro.webgen import build_workload

from .dense_reference import (
    _reference_add_many,
    _reference_dot,
    _reference_exact_scan,
    _reference_probe,
    _reference_project,
    _reference_query,
    _reference_signature,
)
from .test_retrieval_fusion import _corpus

#: ``sum`` adds floats one after another up to Python 3.11 and with a
#: compensation term from 3.12 on, so there the column sums can differ
#: from the old ``+=`` loop in the last bit (towards the true value).
#: Stored vectors are never re-projected, so only the bit-for-bit
#: assertions depend on it; every ranking assertion holds on both.
naive_sum = pytest.mark.skipif(
    sum([1e16, 1.0, -1e16]) != 0.0,
    reason="this interpreter's sum() is compensated: project() is more "
           "accurate than the reference loop, not bit-identical to it",
)


def _bits(vec):
    """The exact bytes of a float sequence (tells -0.0 from 0.0)."""
    return struct.pack(f"<{len(vec)}d", *vec)


weights = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([1.0, -1.0, 0.5, 3.0, 1e-300, -1e-300, 1e300]),
)
sparse_vectors = st.dictionaries(st.integers(0, 40), weights, max_size=24)


# -- the projector and the signatures: bit-identical --------------------------

@naive_sum
@settings(max_examples=200, deadline=None)
@given(sparse=sparse_vectors, dims=st.sampled_from([8, 32, 128]))
def test_projection_and_signature_equal_the_reference_bit_for_bit(sparse, dims):
    index = DenseVectorIndex(dims=dims)
    vec = index.projector.project(sparse)
    reference = _reference_project(index.projector, sparse)
    assert isinstance(vec, list) and len(vec) == dims
    assert _bits(vec) == _bits(reference)
    assert encode({"v": vec}) == encode({"v": reference})
    assert index._signature(vec) == _reference_signature(index, reference)


@naive_sum
@pytest.mark.parametrize("sparse", [
    {},                                       # empty
    {3: 0.0, 9: 0.0},                         # nothing but zero weights
    {7: 2.5},                                 # one term
    {1: 1.0, 2: -1.0, 1000: 1.0, 1001: -1.0},  # signs that cancel by column
    {5: 1e300, 6: -1e300, 8: 1.0},            # cancelling, then a small term
    {4: 1e-300, 11: -1e-300},                 # products that underflow
])
def test_projection_edge_cases_equal_the_reference(sparse):
    projector = DenseProjector()
    vec = projector.project(sparse)
    assert _bits(vec) == _bits(_reference_project(projector, sparse))
    if not any(sparse.values()):
        assert vec == [0.0] * projector.dims


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=40),
    b=st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=40),
)
def test_dot_equals_the_reference(a, b):
    assert _bits([_dot(a, b)]) == _bits([_reference_dot(a, b)])


# -- query: rank-identical, cosines to 1e-12 ----------------------------------

def _random_index(rng, n, dims, *, duplicates, zeros, spread=1.0):
    """*n* vectors placed as stored (no projection): gaussian around one
    of five centres (*spread* 1.0 drowns the centres; a small one fills
    buckets), some non-unit, some exact copies of earlier ones, some
    all-zero."""
    index = DenseVectorIndex(dims=dims)
    centres = [[rng.gauss(0.0, 1.0) for _ in range(dims)] for _ in range(5)]
    made = []
    for i in range(n):
        if made and i < duplicates:
            vec = rng.choice(made)
        elif i < duplicates + zeros:
            vec = [0.0] * dims
        else:
            scale = rng.choice((1.0, 1.0, 0.25, 3.0))
            vec = [(c + rng.gauss(0.0, spread)) * scale
                   for c in rng.choice(centres)]
        made.append(vec)
    rng.shuffle(made)
    for i, vec in enumerate(made):
        index._place(f"http://h{rng.randrange(7)}.example/{i:04d}", vec)
    return index


def _assert_same_rows(rows, reference):
    assert [u for u, _ in rows] == [u for u, _ in reference]
    for (_, score), (_, expected) in zip(rows, reference):
        assert abs(score - expected) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(0, 90),
    dims=st.sampled_from([8, 32]),
    k=st.sampled_from([0, 1, 10, 50]),
    query_scale=st.sampled_from([1.0, 0.0, 1.75, 4.0]),
    scoped=st.booleans(),
)
def test_query_ranks_as_the_reference_scan(seed, n, dims, k, query_scale, scoped):
    rng = random.Random(seed)
    index = _random_index(rng, n, dims, duplicates=n // 5, zeros=n // 10)
    query = [rng.gauss(0.0, 1.0) * query_scale for _ in range(dims)]
    candidates = None
    if scoped:
        urls = sorted(index._vectors)
        candidates = set(rng.sample(urls, len(urls) // 2)) | {"http://absent/"}
    rows = index.query(query, k=k, candidates=candidates)
    _assert_same_rows(
        rows, _reference_query(index, query, k=k, candidates=candidates))
    assert all(isinstance(s, float) for _, s in rows)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32), k=st.sampled_from([1, 10, 50]),
       query_scale=st.sampled_from([1.0, 1.75]))
def test_query_ranks_as_the_reference_on_the_bucket_path(seed, k, query_scale):
    rng = random.Random(seed)
    n = EXACT_SCAN_THRESHOLD + 150
    index = _random_index(rng, n, 16, duplicates=40, zeros=5, spread=0.1)
    near = rng.choice(sorted(index._vectors))
    query = [x * query_scale + rng.gauss(0.0, 0.01) for x in index.vector(near)]
    assume(k <= len(_reference_probe(index, query, k)) < n)
    _assert_same_rows(index.query(query, k=k),
                      _reference_query(index, query, k=k))
    # Scoped to more urls than an exact scan takes: still the buckets,
    # and while they hold k candidates the old filter-after answer.
    candidates = set(rng.sample(sorted(index._vectors), n - 60))
    expected = _reference_query(index, query, k=k, candidates=candidates)
    assume(len(expected) == k)
    _assert_same_rows(
        index.query(query, k=k, candidates=candidates), expected)


def test_a_tie_is_broken_by_url_and_a_zero_vector_scores_zero():
    index = DenseVectorIndex(dims=4)
    index._place("http://b/", [0.6, 0.8, 0.0, 0.0])
    index._place("http://a/", [0.6, 0.8, 0.0, 0.0])
    index._place("http://z/", [0.0, 0.0, 0.0, 0.0])
    rows = index.query([3.0, 4.0, 0.0, 0.0], k=3)
    assert [u for u, _ in rows] == ["http://a/", "http://b/", "http://z/"]
    assert rows[0][1] == rows[1][1] == pytest.approx(5.0, abs=1e-12)
    assert rows[2][1] == 0.0
    assert index.query([0.0] * 4, k=3) == [
        ("http://a/", 0.0), ("http://b/", 0.0), ("http://z/", 0.0)]


# -- the scoped leg: intersect, then probe ------------------------------------

def _two_topics(n):
    return list(_corpus(n).items())


@pytest.fixture(scope="module")
def probed_index():
    """600 documents (the bucket path), an on-topic query, and the urls
    the old probe pooled for it."""
    index = DenseVectorIndex(dims=64)
    index.add_many(_two_topics(600))
    query = index.projector.project({j: 1.0 for j in range(12)})
    probed = _reference_probe(index, query, 10)
    assert 10 <= len(probed) < 600                 # the buckets are in play
    return index, query, probed


def test_a_scoped_query_scans_its_candidates_not_the_querys_buckets(probed_index):
    index, query, probed = probed_index
    outside = set(sorted(set(index._vectors) - probed)[:20])
    assert len(outside) == 20
    rows = index.query(query, k=10, candidates=outside)
    assert len(rows) == 10
    _assert_same_rows(
        rows, _reference_exact_scan(index, query, k=10, candidates=outside))


def test_a_thin_scoped_pool_falls_back_to_the_scope_not_to_nothing(probed_index):
    index, query, probed = probed_index
    # 300 candidates (more than an exact scan takes), 3 of them probed.
    candidates = set(sorted(set(index._vectors) - probed)[:297])
    candidates |= set(sorted(probed)[:3])
    assert len(candidates) > EXACT_SCAN_THRESHOLD
    rows = index.query(query, k=10, candidates=candidates)
    _assert_same_rows(
        rows, _reference_exact_scan(index, query, k=10, candidates=candidates))


# -- what is stored -----------------------------------------------------------

def test_a_vector_of_the_wrong_length_is_refused_not_truncated(tmp_path):
    index = DenseVectorIndex(dims=32)
    with pytest.raises(ValueError, match="3 dimensions"):
        index._place("http://short/", [1.0, 0.0, 0.0])
    assert "http://short/" not in index._vectors
    index.add_many([("http://ok/", {1: 1.0})])
    with pytest.raises(ValueError):
        index.query([1.0, 0.0, 0.0])
    kv = open_engine("btree", tmp_path / "kv")
    try:
        DenseVectorIndex(kv, dims=32).add_many([("http://ok/", {1: 1.0})])
        Namespace(kv, "embed").put(b"http://short/", encode({"v": [1.0, 0.0]}))
        with pytest.raises(ValueError, match="http://short/"):
            DenseVectorIndex(kv, dims=32)
    finally:
        kv.close()


def test_an_index_the_reference_persisted_reloads_and_answers_the_same(tmp_path):
    docs = _two_topics(40) + [("http://empty/", {}), ("http://one/", {5: 2.0})]
    kv = open_engine("btree", tmp_path / "kv")
    try:
        written = DenseVectorIndex(kv, dims=32)
        _reference_add_many(written, docs)
        stored = dict(Namespace(kv, "embed").items())
        reloaded = DenseVectorIndex(kv, dims=32)
        assert len(reloaded._vectors) == len(docs)
        for url, _ in docs:
            vec = reloaded.vector(url)
            assert stored[url.encode()] == encode({"v": list(vec)})
            assert reloaded._sigs[url] == _reference_signature(reloaded, vec)
        for sparse in ({j: 1.0 for j in range(12)}, {1003: 1.0}, {}):
            query = _reference_project(reloaded.projector, sparse)
            _assert_same_rows(reloaded.query(query, k=10),
                              _reference_query(reloaded, query, k=10))
    finally:
        kv.close()


@naive_sum
def test_add_many_stores_the_bytes_the_reference_stored(tmp_path):
    docs = _two_topics(30)
    stores = []
    for name, add in (("new", DenseVectorIndex.add_many),
                      ("reference", _reference_add_many)):
        kv = open_engine("btree", tmp_path / name)
        try:
            add(DenseVectorIndex(kv, dims=32), docs)
            stores.append(dict(kv.cursor()))
        finally:
            kv.close()
    assert stores[0] == stores[1]


# -- through the servlets: same bytes out -------------------------------------

QUERIES = ("rock band music", "stock market", "cycling race", "jazz")


def _transcript(server, users, urls, scopes=("all", "mine", "community")):
    """Every hybrid ``search`` page and every ``related_pages`` answer,
    computed (not served from cache), as canonical JSON."""
    requests = [
        {"servlet": "search", "user_id": user, "query": query,
         "mode": "hybrid", "scope": scope, "limit": 10, "offset": offset}
        for user in users for query in QUERIES
        for scope in scopes for offset in (0, 10, 20)
    ] + [
        {"servlet": "related_pages", "user_id": users[0], "url": url, "k": 10}
        for url in urls
    ]
    out = []
    for request in requests:
        server.caches.clear()
        out.append(json.dumps(server.registry.dispatch(request), sort_keys=True))
    return out


def _with_reference_kernels(monkeypatch, index):
    monkeypatch.setattr(
        index.projector, "project",
        lambda sparse, vocab: _reference_project(
            index.projector, sparse, vocab))
    monkeypatch.setattr(
        index, "query",
        lambda vec, *, k=10, candidates=None: _reference_query(
            index, vec, k=k, candidates=candidates))


def test_hybrid_and_related_answers_are_byte_identical(monkeypatch):
    # Small enough that every scope is an exact scan: above the
    # threshold a scoped leg answers differently on purpose (the
    # intersect-first fix), which the two tests above pin instead.
    workload = build_workload(
        seed=77, num_users=4, days=10, pages_per_leaf=5,
        bookmark_prob=0.25, community_core=4, community_fringe=1,
    )
    system = MemexSystem.from_workload(workload)
    system.replay(workload.events)
    server = system.server
    try:
        server.process_background_work()
        index = server.dense_index
        assert 50 < len(index._vectors) <= EXACT_SCAN_THRESHOLD
        users = [p.user_id for p in workload.profiles[:2]]
        urls = sorted(index._vectors)[::15]
        served = _transcript(server, users, urls)
        assert any('"hits": [{' in row for row in served)
        assert any('"related": [{' in row for row in served)
        _with_reference_kernels(monkeypatch, index)
        assert served == _transcript(server, users, urls)
    finally:
        server.close()


def test_unscoped_answers_are_byte_identical_on_the_bucket_path(
        live_system, small_workload, monkeypatch):
    server = live_system.server
    index = server.dense_index
    assert len(index._vectors) > EXACT_SCAN_THRESHOLD
    users = [small_workload.profiles[0].user_id]
    urls = sorted(index._vectors)[::25]
    served = _transcript(server, users, urls, scopes=("all",))
    assert any('"hits": [{' in row for row in served)
    _with_reference_kernels(monkeypatch, index)
    try:
        assert served == _transcript(server, users, urls, scopes=("all",))
    finally:
        server.caches.clear()   # nothing computed by the stand-ins stays
