"""Unit tests for trails, context, billing, profiles, recommendation."""

import pytest

from repro.core import context, trails
from repro.core.billing import UNCLASSIFIED, bill_breakdown
from repro.core.context import context_neighborhood, recall_session
from repro.core.profiles import (
    UserProfile,
    profile_similarity,
    similar_users,
    url_overlap_similarity,
)
from repro.core.recommend import cluster_users
from repro.core.trails import build_trail_graph, folder_and_descendants
from repro.storage.repository import MemexRepository
from repro.storage.schema import (
    ARCHIVE_COMMUNITY,
    ARCHIVE_PRIVATE,
    ASSOC_GUESS,
)


@pytest.fixture
def repo():
    """A hand-built two-user repo with a music folder and visits."""
    r = MemexRepository()
    r.add_user("me", now=0.0)
    r.add_user("peer", now=0.0)
    for url, text in [
        ("http://m1/", "symphony orchestra classical"),
        ("http://m2/", "violin concerto classical"),
        ("http://m3/", "opera sonata classical"),
        ("http://x1/", "cycling bicycle gears"),
    ]:
        r.upsert_page(url, text=text, now=0.0)
    r.add_link("http://m1/", "http://m2/", now=0.0)
    r.add_link("http://m2/", "http://m3/", now=0.0)
    r.add_link("http://m1/", "http://x1/", now=0.0)
    with r.edit(1.0) as edit:
        edit.bookmark(edit.folder("me", "Music/Classical"), "http://m1/")
    day = 86_400.0
    # me: two sessions; session 1 about music, session 2 about cycling.
    v1 = r.record_visit_batch([dict(
        user_id="me", url="http://m1/", at=1 * day,
        session_id=1, referrer=None, archive_mode=ARCHIVE_COMMUNITY)])[0]
    v2 = r.record_visit_batch([dict(
        user_id="me", url="http://m2/", at=1 * day + 60,
        session_id=1, referrer="http://m1/",
        archive_mode=ARCHIVE_COMMUNITY)])[0]
    v3 = r.record_visit_batch([dict(
        user_id="me", url="http://x1/", at=2 * day,
        session_id=2, referrer=None, archive_mode=ARCHIVE_COMMUNITY)])[0]
    # peer: visits m2 publicly, m3 privately.
    v4 = r.record_visit_batch([dict(
        user_id="peer", url="http://m2/", at=2 * day,
        session_id=3, referrer=None, archive_mode=ARCHIVE_COMMUNITY)])[0]
    v5 = r.record_visit_batch([dict(
        user_id="peer", url="http://m3/", at=2 * day,
        session_id=3, referrer="http://m2/", archive_mode=ARCHIVE_PRIVATE)])[0]
    with r.edit(2 * day) as edit:
        for visit_id, folder, confidence in [
            (v1, "me:Music/Classical", 0.9),
            (v2, "me:Music/Classical", 0.8),
            (v3, "me:Cycling", 0.9),
            (v4, "peer:Tunes", 0.9),
            (v5, "peer:Tunes", 0.9),
        ]:
            edit.label(visit_id, folder, confidence)
    yield r
    r.close()


# -- trails ----------------------------------------------------------------

def test_folder_and_descendants(repo):
    assert set(folder_and_descendants(repo, "me:Music")) == {
        "me:Music", "me:Music/Classical",
    }
    assert folder_and_descendants(repo, "me:Music/Classical") == [
        "me:Music/Classical"
    ]


def test_trail_graph_collects_topical_visits(repo):
    g = build_trail_graph(repo, ["me:Music", "me:Music/Classical"])
    assert set(g.nodes) == {"http://m1/", "http://m2/"}
    assert g.nodes["http://m1/"].visits == 1
    # Click edge from the referrer transition.
    clicks = [e for e in g.edges if e.clicks]
    assert [(e.src, e.dst) for e in clicks] == [("http://m1/", "http://m2/")]


def test_trail_graph_includes_extra_urls(repo):
    g = build_trail_graph(
        repo, ["me:Music/Classical"], include_urls={"http://m3/"},
        user_id="peer",
    )
    assert "http://m3/" in g.nodes
    # The m2 -> m3 connection appears (as a click edge because peer's
    # own private referrer transition is visible to peer; it would be a
    # structural hyperlink edge otherwise).
    assert any(
        e.src == "http://m2/" and e.dst == "http://m3/" for e in g.edges
    )
    # A hyperlink between trail pages that was never clicked shows up as
    # a structural edge.
    repo.add_link("http://m2/", "http://m1/", now=0.0)
    g2 = build_trail_graph(
        repo, ["me:Music/Classical"], include_urls={"http://m3/"},
        user_id="peer",
    )
    assert any(
        e.hyperlink and e.src == "http://m2/" and e.dst == "http://m1/"
        for e in g2.edges
    )


def test_trail_graph_respects_privacy(repo):
    # peer's private m3 visit is excluded even if topical for them.
    g = build_trail_graph(repo, ["peer:Tunes"], user_id="me")
    assert "http://m3/" not in g.nodes
    # But the asking user sees their own private visits.
    g2 = build_trail_graph(repo, ["peer:Tunes"], user_id="peer")
    assert "http://m3/" in g2.nodes


def test_trail_graph_confidence_gate(repo, monkeypatch):
    v = repo.record_visit_batch([dict(
        user_id="me", url="http://m3/", at=3 * 86_400.0,
        session_id=4, referrer=None, archive_mode=ARCHIVE_COMMUNITY)])[0]
    with repo.edit(3 * 86_400.0) as edit:
        edit.label(v, "me:Music/Classical", 0.1)  # a shrug
    g = build_trail_graph(repo, ["me:Music/Classical"])
    assert "http://m3/" not in g.nodes
    monkeypatch.setattr(trails, "MIN_CONFIDENCE", 0.05)
    g2 = build_trail_graph(repo, ["me:Music/Classical"])
    assert "http://m3/" in g2.nodes


def test_trail_graph_window_and_trim(repo, monkeypatch):
    g = build_trail_graph(
        repo, ["me:Music/Classical"], since=1.5 * 86_400.0,
    )
    assert set(g.nodes) == set()  # music visits were on day 1
    monkeypatch.setattr(trails, "MAX_NODES", 1)
    g2 = build_trail_graph(repo, ["me:Music/Classical"])
    assert len(g2.nodes) == 1


def test_trail_payload_sorted(repo):
    g = build_trail_graph(repo, ["me:Music/Classical"])
    payload = g.to_payload()
    scores = [n["score"] for n in payload["nodes"]]
    assert scores == sorted(scores, reverse=True)
    assert payload["folders"] == []


def test_trail_empty_for_unknown_folder(repo):
    g = build_trail_graph(repo, ["me:Ghost"])
    assert len(g.nodes) == 0


# -- context ----------------------------------------------------------------------

def test_recall_session_finds_latest_topical(repo):
    session = recall_session(repo, "me", ["me:Music/Classical"])
    assert session is not None
    assert session.session_id == 1
    assert session.trail == ["http://m1/", "http://m2/"]
    assert session.on_topic == session.trail
    assert session.ended_at - session.started_at == 60.0


def test_recall_session_before(repo):
    session = recall_session(
        repo, "me", ["me:Music/Classical"], before=0.5 * 86_400.0,
    )
    assert session is None


def test_recall_session_no_match(repo):
    assert recall_session(repo, "me", ["me:Nothing"]) is None
    assert recall_session(repo, "stranger", ["me:Music"]) is None


def test_context_neighborhood_expands_links(repo):
    session = recall_session(repo, "me", ["me:Music/Classical"])
    hood = context_neighborhood(repo, session)
    # m1, m2 plus their out-links m3 and x1.
    assert set(hood.nodes) == {"http://m1/", "http://m2/", "http://m3/", "http://x1/"}
    # Core pages outrank frontier pages.
    assert hood.nodes["http://m1/"].score > hood.nodes["http://m3/"].score
    click = [e for e in hood.edges if e.clicks]
    assert [(e.src, e.dst) for e in click] == [("http://m1/", "http://m2/")]


def test_context_neighborhood_max_nodes(repo, monkeypatch):
    session = recall_session(repo, "me", ["me:Music/Classical"])
    monkeypatch.setattr(context, "MAX_NODES", 2)
    hood = context_neighborhood(repo, session)
    assert len(hood.nodes) == 2  # just the core


# -- billing -------------------------------------------------------------------------

def test_bill_breakdown_shares(repo):
    lines = bill_breakdown(repo, "me", monthly_rate=30.0)
    categories = {l.category: l for l in lines}
    assert set(categories) == {"Music", UNCLASSIFIED}
    assert sum(l.share for l in lines) == pytest.approx(1.0)
    assert sum(l.amount for l in lines) == pytest.approx(30.0)
    assert categories["Music"].visits == 2
    # Unclassified (the cycling visit under an unknown folder id) is last.
    assert lines[-1].category == UNCLASSIFIED


def test_bill_breakdown_window(repo):
    lines = bill_breakdown(repo, "me", since=1.5 * 86_400.0)
    assert {l.category for l in lines} == {UNCLASSIFIED}
    assert bill_breakdown(repo, "nobody") == []


def test_bill_unclassified_visits(repo):
    repo.record_visit_batch([dict(
        user_id="me", url="http://m3/", at=4 * 86_400.0,
        session_id=9, referrer=None, archive_mode=ARCHIVE_COMMUNITY)])
    lines = bill_breakdown(repo, "me")
    assert any(l.category == UNCLASSIFIED for l in lines)


# -- profiles ----------------------------------------------------------------------------

def _profile(user, weights):
    return UserProfile(user_id=user, weights=weights, pages=len(weights))


def test_profile_similarity():
    a = _profile("a", {"t1": 0.8, "t2": 0.2})
    b = _profile("b", {"t1": 0.7, "t2": 0.3})
    c = _profile("c", {"t3": 1.0})
    assert profile_similarity(a, b) > 0.9
    assert profile_similarity(a, c) == 0.0
    assert profile_similarity(a, a) == pytest.approx(1.0)
    assert profile_similarity(a, _profile("e", {})) == 0.0


def test_similar_users_ranking():
    profiles = {
        "me": _profile("me", {"t1": 1.0}),
        "close": _profile("close", {"t1": 0.9, "t2": 0.1}),
        "far": _profile("far", {"t2": 1.0}),
    }
    ranked = similar_users(profiles, "me", k=2)
    assert [u for u, _ in ranked] == ["close", "far"]
    assert similar_users(profiles, "ghost") == []


def test_url_overlap_baseline(repo):
    sim = url_overlap_similarity(repo, "me", "peer")
    # me: m1,m2,x1; peer: m2,m3 -> overlap 1 of 4.
    assert sim == pytest.approx(0.25)
    assert url_overlap_similarity(repo, "nobody", "me") == 0.0


def test_top_themes():
    p = _profile("u", {"a": 0.5, "b": 0.3, "c": 0.2})
    assert p.top_themes(2) == [("a", 0.5), ("b", 0.3)]


# -- user clustering ----------------------------------------------------------------------

def test_cluster_users_by_profile():
    profiles = {
        "a1": _profile("a1", {"t1": 1.0}),
        "a2": _profile("a2", {"t1": 0.9, "t2": 0.1}),
        "b1": _profile("b1", {"t9": 1.0}),
        "b2": _profile("b2", {"t9": 0.8, "t8": 0.2}),
    }
    groups = cluster_users(profiles, k=2)
    as_sets = sorted(frozenset(g) for g in groups)
    assert frozenset({"a1", "a2"}) in as_sets
    assert frozenset({"b1", "b2"}) in as_sets


def test_cluster_users_empty_profiles():
    profiles = {
        "a": _profile("a", {"t1": 1.0}),
        "empty": _profile("empty", {}),
    }
    groups = cluster_users(profiles, k=2)
    assert ["empty"] in groups
    assert ["a"] in groups
    assert cluster_users({"e": _profile("e", {})}, k=1) == [["e"]]
