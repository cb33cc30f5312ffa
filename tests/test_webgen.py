"""Tests for the synthetic Web and surfer simulation."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.events import BookmarkEvent, FolderCreateEvent, VisitEvent
from repro.webgen import (
    TopicLanguageModel,
    bookmark_challenge_workload,
    build_workload,
    community_interests,
    generate_corpus,
    generate_links,
    link_topic_locality,
    make_profile,
    master_taxonomy,
    simulate_surfers,
)


@pytest.fixture(scope="module")
def taxonomy():
    return master_taxonomy()


def test_master_taxonomy_shape(taxonomy):
    leaves = taxonomy.leaves()
    assert len(leaves) >= 30
    assert all(l.seed_terms for l in leaves)
    names = [l.name for l in leaves]
    assert len(set(names)) == len(names)
    assert taxonomy.find("Arts/Music/Classical") is not None
    assert taxonomy.find("Nonexistent/Topic") is None


def test_topic_node_paths(taxonomy):
    node = taxonomy.find("Arts/Music/Classical")
    assert node.label == "Classical"
    assert len(node.ancestors()) == 3
    assert [n.label for n in node.ancestors()] == ["Arts", "Music", "Classical"]
    assert node.is_leaf
    music = taxonomy.find("Arts/Music")
    assert not music.is_leaf
    assert node in music.walk()


def test_community_interests_distribution(taxonomy):
    rng = random.Random(5)
    interests = community_interests(taxonomy, rng, num_core=4, num_fringe=3)
    assert len(interests) == 7
    assert abs(sum(interests.values()) - 1.0) < 1e-9
    core = sorted(interests.values(), reverse=True)[:4]
    fringe = sorted(interests.values())[:3]
    assert min(core) > max(fringe)


def test_community_interests_sibling_bias(taxonomy):
    rng = random.Random(5)
    interests = community_interests(taxonomy, rng, num_core=6, num_fringe=0)
    weights = sorted(interests.items(), key=lambda kv: -kv[1])
    core_topics = [name for name, _ in weights[:6]]
    parents = {t.rsplit("/", 1)[0] for t in core_topics}
    # Sibling bias packs 6 core topics into very few parents.
    assert len(parents) <= 3


def test_community_interests_too_large(taxonomy):
    with pytest.raises(ValueError):
        community_interests(taxonomy, random.Random(0), num_core=999)


def test_language_model_topical_separation(taxonomy):
    rng = random.Random(2)
    lm = TopicLanguageModel(taxonomy, rng)
    classical = taxonomy.find("Arts/Music/Classical")
    cycling = taxonomy.find("Recreation/Cycling")
    text_c = lm.generate(classical, rng, 500)
    text_y = lm.generate(cycling, rng, 500)
    vocab_c = set(lm._topic_vocab[classical.name])
    vocab_y = set(lm._topic_vocab[cycling.name])
    hits_c = sum(1 for t in text_c if t in vocab_c)
    cross = sum(1 for t in text_c if t in vocab_y)
    assert hits_c > 10 * max(cross, 1) or cross == 0
    assert sum(1 for t in text_y if t in vocab_y) > 50


def test_language_model_topical_mass_override(taxonomy):
    rng = random.Random(3)
    lm = TopicLanguageModel(taxonomy, rng, topical_mass=0.6)
    leaf = taxonomy.find("Computers/Programming/Compilers")
    vocab = set(lm._topic_vocab[leaf.name])
    rich = lm.generate(leaf, rng, 1000)
    poor = lm.generate(leaf, rng, 1000, topical_mass=0.05)
    frac_rich = sum(1 for t in rich if t in vocab) / 1000
    frac_poor = sum(1 for t in poor if t in vocab) / 1000
    assert frac_rich > 3 * frac_poor


def test_corpus_front_pages_are_sparse(taxonomy):
    rng = random.Random(4)
    corpus = generate_corpus(
        taxonomy, rng, pages_per_leaf=10, front_page_fraction=0.5,
    )
    fronts = [p for p in corpus.pages.values() if p.front_page]
    contents = [p for p in corpus.pages.values() if not p.front_page]
    assert fronts and contents
    avg_front = sum(len(p.text.split()) for p in fronts) / len(fronts)
    avg_content = sum(len(p.text.split()) for p in contents) / len(contents)
    assert avg_front * 3 < avg_content
    assert all(p.title for p in corpus.pages.values())


def test_corpus_by_topic_and_lookup(taxonomy):
    rng = random.Random(4)
    corpus = generate_corpus(taxonomy, rng, pages_per_leaf=5)
    leaf = taxonomy.leaves()[0]
    pages = corpus.by_topic(leaf.name)
    assert len(pages) == 5
    url = pages[0].url
    assert corpus.topic_of(url) == leaf.name
    assert len(corpus) == 5 * len(taxonomy.leaves())


def test_link_graph_topic_locality(taxonomy):
    rng = random.Random(6)
    corpus = generate_corpus(taxonomy, rng, pages_per_leaf=10)
    graph = generate_links(corpus, rng, locality=0.8)
    loc_high = link_topic_locality(corpus, graph)
    # Out-links recorded on pages match the graph.
    some = next(iter(corpus.pages.values()))
    assert set(some.out_links) == set(graph.successors(some.url))
    # A fresh corpus wired with low locality scores lower.
    corpus_low = generate_corpus(taxonomy, random.Random(6), pages_per_leaf=10)
    graph_low = generate_links(corpus_low, random.Random(6), locality=0.1)
    loc_low = link_topic_locality(corpus_low, graph_low)
    assert loc_high > loc_low
    assert loc_high > 0.3


def test_link_graph_no_self_loops(taxonomy):
    rng = random.Random(6)
    corpus = generate_corpus(taxonomy, rng, pages_per_leaf=5)
    graph = generate_links(corpus, rng)
    assert all(src != dst for src, dst in graph.edges())


def test_profile_generation(taxonomy):
    rng = random.Random(8)
    profile = make_profile("u1", taxonomy, rng, num_core=3, num_fringe=2)
    assert abs(sum(profile.interests.values()) - 1.0) < 1e-9
    assert len(profile.interests) == 5
    assert profile.folders
    covered = [t for topics in profile.folders.values() for t in topics]
    assert len(covered) == len(set(covered))  # a topic maps to one folder
    top3 = sorted(profile.interests.items(), key=lambda kv: -kv[1])[:3]
    for topic, _ in top3:
        assert profile.folder_for_topic(topic) is not None


def test_profile_community_adherence(taxonomy):
    rng = random.Random(9)
    community = community_interests(taxonomy, rng, num_core=4, num_fringe=0)
    hits = 0
    total = 0
    for i in range(20):
        p = make_profile(
            f"u{i}", taxonomy, rng,
            community_interests=community, community_adherence=1.0,
        )
        core = sorted(p.interests.items(), key=lambda kv: -kv[1])[:3]
        for topic, _ in core:
            total += 1
            hits += topic in community
    assert hits / total > 0.9


def test_simulation_produces_ordered_events(taxonomy):
    rng = random.Random(10)
    corpus = generate_corpus(taxonomy, rng, pages_per_leaf=8)
    graph = generate_links(corpus, rng)
    profiles = [make_profile(f"u{i}", taxonomy, rng) for i in range(3)]
    result = simulate_surfers(corpus, graph, profiles, rng, days=10)
    times = [e.at for e in result.events]
    assert times == sorted(times)
    assert any(isinstance(e, VisitEvent) for e in result.events)
    assert any(isinstance(e, FolderCreateEvent) for e in result.events)
    # Every user's folder creations precede their visits.
    assert any(e.user_id == "u0" for e in result.events)


def test_simulation_visits_respect_ground_truth(taxonomy):
    rng = random.Random(11)
    corpus = generate_corpus(taxonomy, rng, pages_per_leaf=8)
    graph = generate_links(corpus, rng)
    profiles = [make_profile("u0", taxonomy, rng)]
    result = simulate_surfers(corpus, graph, profiles, rng, days=20)
    visits = [e for e in result.events if isinstance(e, VisitEvent)]
    assert visits
    on_topic = sum(
        1 for v in visits if v.truth["page_topic"] == v.truth["topic"]
    )
    # Topical surfers mostly stay on topic.
    assert on_topic / len(visits) > 0.5
    for v in visits:
        assert v.truth["page_topic"] == corpus.topic_of(v.url)


def test_bookmarks_point_at_owned_folders(taxonomy):
    rng = random.Random(12)
    corpus = generate_corpus(taxonomy, rng, pages_per_leaf=8)
    graph = generate_links(corpus, rng)
    profile = make_profile("u0", taxonomy, rng)
    result = simulate_surfers(corpus, graph, [profile], rng, days=30)
    bms = [e for e in result.events if isinstance(e, BookmarkEvent)]
    assert bms
    for bm in bms:
        assert bm.folder_path in profile.folders


def _workload_digest(workload) -> str:
    """sha256 over every generated byte a server or an experiment reads."""
    h = hashlib.sha256()

    def put(*fields) -> None:
        h.update(repr(fields).encode())

    for p in workload.corpus.pages.values():
        put(p.url, p.topic, p.title, p.text, p.front_page, p.born_at, p.out_links)
    for edge in workload.graph.edges():
        put(*edge)
    for profile in workload.profiles:
        put(profile)
    for event in workload.events:
        put(event)
    return h.hexdigest()


#: The bench archives (``read_hot``, ``ingest``, ``search_cold``/``mixed``),
#: the E1 preset and a late-page workload, each pinned to its digest.  Any
#: change to a draw (its order, count or arithmetic) changes some digest.
GOLDEN_WORKLOADS = {
    "bench-6x8x12": (
        lambda: build_workload(seed=23, num_users=6, days=8, pages_per_leaf=12),
        "248934fb5b472b4cc79dceff25f0f83253acfdbb912226de85fb5400e14cb6ae"),
    "bench-4x1x16": (
        lambda: build_workload(seed=23, num_users=4, days=1, pages_per_leaf=16),
        "d40e27438fc1a5ccc86eff20b71a5974328aa79ff5304d4e138ff0bdb5b65207"),
    "bench-4x2x12": (
        lambda: build_workload(seed=23, num_users=4, days=2, pages_per_leaf=12),
        "0b9339da731f21d23db3ce4f957677302df2aaa45d35a3e0267b538f11447176"),
    "bookmark-challenge": (
        bookmark_challenge_workload,
        "de0925adaf7072a1d4e08992004f0ae0ec4ed119aed60cfd2ee5d389c89b9fa6"),
    "late-pages": (
        lambda: build_workload(seed=17, num_users=4, days=14, pages_per_leaf=8,
                               late_page_fraction=0.4),
        "27ba1a000d83b16df150118deb83fb12ae98ad31ec1f7eea0873865ef6999eb1"),
}


def test_workload_determinism():
    digests = {name: _workload_digest(build())
               for name, (build, _) in GOLDEN_WORKLOADS.items()}
    assert digests == {name: golden
                       for name, (_, golden) in GOLDEN_WORKLOADS.items()}


def test_a_token_costs_no_weight_table(monkeypatch):
    """Text is drawn from precomputed running sums: building the
    ``read_hot`` archive passes weights to ``Random.choices`` only for
    the per-profile and per-session topic picks, never per token."""
    weighted = 0
    choices = random.Random.choices

    def counting(self, population, weights=None, **kwargs):
        nonlocal weighted
        weighted += weights is not None or kwargs.get("cum_weights") is not None
        return choices(self, population, weights, **kwargs)

    monkeypatch.setattr(random.Random, "choices", counting)
    w = build_workload(seed=23, num_users=6, days=8, pages_per_leaf=12)
    assert 0 < weighted < len(w.corpus) // 2


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_workload_generation_total(seed):
    w = build_workload(seed=seed, num_users=2, days=3, pages_per_leaf=2)
    assert len(w.corpus) > 0
    assert w.events == sorted(w.events, key=lambda e: e.at)


def test_memex_system_context_manager():
    from repro.core import MemexSystem
    w = build_workload(seed=5, num_users=2, days=3, pages_per_leaf=3)
    with MemexSystem.from_workload(w) as system:
        system.replay(w.events[:50])
        assert len(system.server.repo.db.table("visits")) > 0


def test_late_pages_are_never_visited_early():
    w = build_workload(
        seed=17, num_users=4, days=14, pages_per_leaf=8,
        late_page_fraction=0.4,
    )
    late = [p for p in w.corpus.pages.values() if p.born_at > 0]
    assert late, "late_page_fraction should produce late-born pages"
    for e in w.events:
        if isinstance(e, VisitEvent):
            assert w.corpus.pages[e.url].born_at <= e.at
    # Some late pages do eventually get visited.
    visited = {e.url for e in w.events if isinstance(e, VisitEvent)}
    assert any(p.url in visited for p in late)


def test_fresh_resources_surface_late_pages():
    """End to end: Q3's 'appeared recently' filter returns only pages the
    server first saw late in the run."""
    from repro.core import MemexSystem

    w = build_workload(
        seed=17, num_users=8, days=20, pages_per_leaf=10,
        late_page_fraction=0.5, bookmark_prob=0.3,
    )
    system = MemexSystem.from_workload(w)
    system.replay(w.events)
    server = system.server
    profile = w.profiles[0]
    top = max(profile.interests.items(), key=lambda kv: kv[1])[0]
    leaf = w.root.find(top)
    applet = system.connect(profile.user_id)
    recent = applet.resources(
        " ".join(leaf.seed_terms[:4]), k=10, since_days=5.0,
    )
    all_time = applet.resources(" ".join(leaf.seed_terms[:4]), k=10)
    assert len(all_time) >= len(recent)
    cutoff = server.now - 5.0 * 86_400.0
    for res in recent:
        assert res["first_seen"] >= cutoff
