"""Tests for community theme discovery (Figure 4)."""

import random

import pytest

from repro.errors import EmptyCorpus
from repro.mining.themes import (
    FolderDoc,
    ThemeDiscovery,
    universal_baseline,
)
from repro.text.vocabulary import Vocabulary


def fdoc(user, path, terms, rng, npages=3):
    vec = {t: rng.uniform(1.0, 3.0) for t in terms}
    return FolderDoc(user_id=user, folder_path=path, vector=vec, num_pages=npages)


@pytest.fixture
def community():
    """4 users; a shared deep interest (terms 0-5, split into two
    sub-interests), and one user's idiosyncratic folder (terms 90-92)."""
    rng = random.Random(3)
    docs = []
    for u in ["u1", "u2", "u3"]:
        docs.append(fdoc(u, f"{u} classical", [0, 1, 2], rng, npages=6))
        docs.append(fdoc(u, f"{u} jazz", [3, 4, 5], rng, npages=6))
    docs.append(fdoc("u4", "antique clocks", [90, 91, 92], rng))
    return docs


def test_discovery_groups_common_factors(community):
    taxonomy = ThemeDiscovery(cohesion_threshold=0.55).discover(community)
    themes = taxonomy.all_themes()
    assert len(themes) >= 2
    # Some theme holds all three users' classical folders together.
    classical = [
        t for t in taxonomy.leaves()
        if {u for u, p in t.folders} == {"u1", "u2", "u3"}
        and all("classical" in p for _, p in t.folders)
    ]
    assert classical, [
        (t.theme_id, t.folders) for t in taxonomy.leaves()
    ]


def test_discovery_preserves_individuality(community):
    taxonomy = ThemeDiscovery().discover(community)
    lonely = [
        t for t in taxonomy.leaves()
        if t.folders == [("u4", "antique clocks")]
    ]
    assert lonely, "idiosyncratic folder should be its own theme"


def test_refinement_splits_deep_interests(community):
    deep = ThemeDiscovery(
        min_split_folders=4, cohesion_threshold=0.55,
    ).discover(community)
    coarse = ThemeDiscovery(
        min_split_folders=999,  # never refine
    ).discover(community)
    assert len(deep.leaves()) > len(coarse.leaves())


def test_single_user_interest_never_subdivided():
    rng = random.Random(5)
    docs = [fdoc("solo", f"folder{i}", [i, i + 1], rng) for i in range(6)]
    taxonomy = ThemeDiscovery(min_split_users=2).discover(docs)
    for theme in taxonomy.all_themes():
        if theme.children:
            assert theme.num_users >= 2
    # One user: everything stays one unsplit theme.
    assert len(taxonomy.leaves()) == 1


def test_assign_and_fit(community):
    taxonomy = ThemeDiscovery().discover(community)
    rng = random.Random(7)
    classical_like = {0: 2.0, 1: 1.5, 2: 1.0}
    theme, sim = taxonomy.assign(classical_like)
    assert sim > 0.5
    assert any("classical" in p for _, p in theme.folders)
    fit = taxonomy.fit(community)
    assert 0.0 < fit <= 1.0 + 1e-9
    with pytest.raises(EmptyCorpus):
        taxonomy.fit([])


def test_labels_from_vocabulary(community):
    vocab = Vocabulary()
    named = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    for term in named + [f"w{i}" for i in range(len(named), 95)]:
        vocab.add(term)
    taxonomy = ThemeDiscovery().discover(community, vocab)
    for theme in taxonomy.all_themes():
        assert theme.label
    # Without vocab, labels fall back to majority folder basename.
    unlabeled = ThemeDiscovery().discover(community)
    assert all(t.label for t in unlabeled.all_themes())


def test_theme_weight_accumulates_pages(community):
    taxonomy = ThemeDiscovery().discover(community)
    total = sum(t.weight for t in taxonomy.roots)
    assert total == sum(d.num_pages for d in community)


def test_discover_empty_and_single():
    with pytest.raises(EmptyCorpus):
        ThemeDiscovery().discover([])
    rng = random.Random(0)
    solo = ThemeDiscovery().discover([fdoc("u", "f", [1], rng)])
    assert len(solo.leaves()) == 1
    assert solo.depth() == 1


def test_max_depth_cap(community, monkeypatch):
    monkeypatch.setattr(ThemeDiscovery, "MAX_DEPTH", 1)
    taxonomy = ThemeDiscovery(
        min_split_folders=2, min_split_users=1, cohesion_threshold=2.0,
    ).discover(community)
    assert taxonomy.depth() <= 2  # roots plus one refinement


def test_universal_baseline(community):
    topics = {
        "music": {0: 1.0, 1: 1.0, 3: 1.0},
        "clocks": {90: 1.0, 91: 1.0},
    }
    baseline = universal_baseline(topics)
    assert len(baseline.leaves()) == 2
    theme, sim = baseline.assign({0: 2.0})
    assert theme.label == "music"
    assert sim > 0
    with pytest.raises(EmptyCorpus):
        universal_baseline({})


def test_tailored_beats_universal_fit(community):
    """The E5/E8 claim in miniature: community-tailored themes fit the
    community's folders better than a mismatched universal directory."""
    taxonomy = ThemeDiscovery().discover(community)
    universal = universal_baseline({
        # A 'universal' directory talking about other things entirely,
        # with one vaguely-related node.
        "music": {0: 1.0, 5: 1.0, 40: 3.0, 41: 3.0},
        "sports": {60: 1.0, 61: 1.0},
        "news": {70: 1.0, 71: 1.0},
    })
    assert taxonomy.fit(community) > universal.fit(community)
