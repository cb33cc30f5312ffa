"""Tests for HAC, scatter/gather, and clustering metrics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyCorpus
from repro.mining.evaluation import normalized_mutual_information, purity
from repro.mining.hac import cluster_vectors, hac
from repro.mining.scatter_gather import ScatterGatherSession, buckshot


def blob(center_terms, rng, n=8, noise_terms=range(50, 60)):
    """n sparse vectors concentrated on center_terms with light noise."""
    out = []
    for _ in range(n):
        vec = {t: rng.uniform(2.0, 4.0) for t in center_terms}
        vec[rng.choice(list(noise_terms))] = rng.uniform(0.1, 0.5)
        out.append(vec)
    return out


@pytest.fixture
def three_blobs():
    rng = random.Random(1)
    a = blob([0, 1], rng)
    b = blob([10, 11], rng)
    c = blob([20, 21], rng)
    vectors = a + b + c
    labels = ["a"] * len(a) + ["b"] * len(b) + ["c"] * len(c)
    return vectors, labels


def test_hac_recovers_blobs(three_blobs):
    vectors, labels = three_blobs
    clusters = cluster_vectors(vectors, 3)
    assert len(clusters) == 3
    assert purity(clusters, labels) == 1.0


@pytest.mark.parametrize("linkage", ["single", "complete", "group-average"])
def test_all_linkages_work(three_blobs, linkage):
    vectors, labels = three_blobs
    clusters = hac(vectors, linkage=linkage).cut(3)
    assert purity(clusters, labels) > 0.9


def test_hac_dendrogram_structure(three_blobs):
    vectors, _ = three_blobs
    dendro = hac(vectors)
    n = len(vectors)
    assert dendro.n_leaves == n
    assert len(dendro.merges) == n - 1
    # Cluster ids are fresh and merges consume each id exactly once.
    consumed = [m[0] for m in dendro.merges] + [m[1] for m in dendro.merges]
    assert len(consumed) == len(set(consumed))
    assert dendro.merges[-1][2] == n + len(dendro.merges) - 1


def test_cut_boundaries(three_blobs):
    vectors, _ = three_blobs
    dendro = hac(vectors)
    assert len(dendro.cut(1)) == 1
    assert sorted(i for c in dendro.cut(1) for i in c) == list(range(len(vectors)))
    singles = dendro.cut(len(vectors))
    assert all(len(c) == 1 for c in singles)
    assert len(dendro.cut(999)) == len(vectors)
    with pytest.raises(ValueError):
        dendro.cut(0)


def test_hac_empty_and_single():
    with pytest.raises(EmptyCorpus):
        hac([])
    d = hac([{0: 1.0}])
    assert d.cut(1) == [[0]]
    with pytest.raises(ValueError):
        hac([{0: 1.0}], linkage="ward")


def test_hac_identical_vectors():
    vectors = [{0: 1.0}] * 5
    clusters = cluster_vectors(vectors, 2)
    assert sum(len(c) for c in clusters) == 5


def test_hac_empty_vectors_dont_crash():
    vectors = [{0: 1.0}, {}, {1: 1.0}, {}]
    clusters = cluster_vectors(vectors, 2)
    assert sum(len(c) for c in clusters) == 4


# -- scatter/gather ------------------------------------------------------------------

def test_buckshot_recovers_blobs(three_blobs):
    vectors, labels = three_blobs
    clusters = buckshot(vectors, 3, random.Random(0))
    groups = [c.members for c in clusters if c.members]
    assert purity(groups, labels) > 0.9
    assert sum(len(c) for c in groups) == len(vectors)
    for c in clusters:
        assert c.center or not c.members


def test_buckshot_k_bounds(three_blobs):
    vectors, _ = three_blobs
    assert len(buckshot(vectors, 999, random.Random(0))) == len(vectors)
    with pytest.raises(EmptyCorpus):
        buckshot([], 3, random.Random(0))


def test_scatter_gather_session(three_blobs):
    vectors, labels = three_blobs
    session = ScatterGatherSession(vectors, seed=0)
    clusters = session.scatter(3)
    assert len(clusters) <= 3
    # Gather the cluster dominated by label 'a' and drill in.
    best = max(
        range(len(clusters)),
        key=lambda ci: sum(1 for i in clusters[ci].members if labels[i] == "a"),
    )
    working = session.gather([best])
    assert set(working) == set(clusters[best].members)
    sub = session.scatter(2)
    assert sum(len(c.members) for c in sub) == len(working)


def test_scatter_gather_errors(three_blobs):
    vectors, _ = three_blobs
    session = ScatterGatherSession(vectors)
    with pytest.raises(EmptyCorpus):
        session.gather([0])  # no scatter yet
    session.scatter(2)
    with pytest.raises(EmptyCorpus):
        session.gather([])
    with pytest.raises(EmptyCorpus):
        ScatterGatherSession([])


# -- metrics ------------------------------------------------------------------------------

def test_purity_and_nmi_perfect():
    clusters = [[0, 1], [2, 3]]
    labels = ["a", "a", "b", "b"]
    assert purity(clusters, labels) == 1.0
    assert normalized_mutual_information(clusters, labels) == pytest.approx(1.0)


def test_purity_and_nmi_random():
    clusters = [[0, 2], [1, 3]]
    labels = ["a", "a", "b", "b"]
    assert purity(clusters, labels) == 0.5
    assert normalized_mutual_information(clusters, labels) == pytest.approx(0.0, abs=1e-9)


def test_nmi_single_cluster():
    assert normalized_mutual_information([[0, 1, 2]], ["a", "b", "c"]) == 0.0
    assert normalized_mutual_information([[0, 1]], ["a", "a"]) == 1.0
    assert purity([], []) == 0.0


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 20), st.floats(0.1, 5.0), min_size=1, max_size=5),
        min_size=2, max_size=15,
    ),
    st.integers(1, 5),
)
def test_hac_cut_is_a_partition(vectors, k):
    clusters = cluster_vectors(vectors, k)
    flat = sorted(i for c in clusters for i in c)
    assert flat == list(range(len(vectors)))
    assert len(clusters) == min(k, len(vectors))


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 20), st.floats(0.1, 5.0), min_size=1, max_size=5),
        min_size=1, max_size=15,
    ),
)
def test_the_dendrogram_tree_is_the_one_its_merges_spell(vectors):
    """Root, children, merge similarities and each node's members (left
    subtree first) as a walk over ``merges`` rebuilds them."""
    dendro = hac(vectors)
    children = {new: (left, right) for left, right, new, _ in dendro.merges}

    def leaves_under(node):
        if node not in children:
            return [node]
        left, right = children[node]
        return leaves_under(left) + leaves_under(right)

    assert dendro.children == children
    assert dendro.similarity == {new: sim for _, _, new, sim in dendro.merges}
    assert dendro.root == (dendro.merges[-1][2] if dendro.merges else 0)
    assert sorted(dendro.members(dendro.root)) == list(range(len(vectors)))
    for node in range(len(vectors) + len(dendro.merges)):
        assert dendro.members(node) == leaves_under(node)
