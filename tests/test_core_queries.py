"""Tests for the six motivating queries (§1) on a live community."""

import pytest

from repro.core.community import consolidate
from repro.core.queries import MotivatingQueries


@pytest.fixture(scope="module")
def queries(live_system):
    return MotivatingQueries(live_system.server)


@pytest.fixture(scope="module")
def subject(small_workload):
    """The user and topical handles the queries will use."""
    profile = small_workload.profiles[0]
    top_topic = max(profile.interests.items(), key=lambda kv: kv[1])[0]
    leaf = small_workload.root.find(top_topic)
    return {
        "profile": profile,
        "user": profile.user_id,
        "topic": top_topic,
        "folder": profile.folder_for_topic(top_topic),
        "query": " ".join(leaf.seed_terms[:3]),
    }


def test_q1_temporal_recall(queries, subject, small_workload, live_system):
    # Find a day on which the user actually surfed the topic.
    repo = live_system.server.repo
    server = live_system.server
    visits = repo.user_visits(subject["user"])
    topical = [
        v for v in visits
        if small_workload.corpus.topic_of(v["url"]) == subject["topic"]
    ]
    assert topical
    target = topical[len(topical) // 2]
    days_ago = (server.now - target["at"]) / 86_400.0
    answer = queries.url_from_memory(
        subject["user"], subject["query"],
        about_days_ago=days_ago, tolerance_days=5.0,
    )
    assert answer.found
    hit_topics = {
        small_workload.corpus.topic_of(h["url"]) for h in answer.results[:3]
    }
    assert subject["topic"] in hit_topics
    for hit in answer.results:
        assert abs(hit["visited_at"] - target["at"]) <= 5.5 * 86_400.0


def test_q2_context_recall(queries, subject, small_workload):
    answer = queries.last_neighborhood(subject["user"], subject["folder"])
    assert answer.found
    assert answer.extra["session"]["user_id"] == subject["user"]
    assert answer.extra["session"]["on_topic"]


def test_q3_fresh_popular_sites(queries, subject, small_workload):
    answer = queries.fresh_popular_sites(
        subject["user"], subject["query"], since_days=365.0,
    )
    assert answer.found
    assert answer.extra["theme"] is not None
    topics = [small_workload.corpus.topic_of(r["url"]) for r in answer.results[:3]]
    # Fresh sites are topically related (same leaf or sibling).
    parent = subject["topic"].rsplit("/", 1)[0]
    assert any(t.startswith(parent) for t in topics)


def test_q4_bill_division(queries, subject):
    answer = queries.bill_division(subject["user"], days=60.0, monthly_rate=40.0)
    assert answer.found
    assert sum(l["amount"] for l in answer.results) == pytest.approx(40.0)
    # The user's dominant folder is a top bill category.
    top_category = answer.results[0]["category"]
    assert top_category != "(unclassified)"


def test_q5_topic_map(queries, subject):
    answer = queries.community_topic_map(subject["user"])
    assert answer.found
    assert answer.extra["my_top_themes"]

    def flatten(nodes):
        for n in nodes:
            yield n
            yield from flatten(n["children"])

    themes = list(flatten(answer.results))
    my_best = answer.extra["my_top_themes"][0][0]
    annotated = {t["theme_id"]: t["my_weight"] for t in themes}
    assert annotated[my_best] > 0


def test_q6_interest_mates(queries, subject, small_workload, live_system):
    answer = queries.interest_mates(subject["user"], subject["query"])
    assert answer.extra["theme"] is not None
    # Everyone ranked shares the interest to some degree.
    for row in answer.results:
        assert row["interest"] > 0
        assert row["user_id"] != subject["user"]
    # Ground truth: the top mate genuinely has the topic among interests
    # (communities here are focused, so this holds for core topics).
    if answer.results:
        mate = answer.results[0]["user_id"]
        mate_profile = small_workload.result.profiles[mate]
        parent = subject["topic"].rsplit("/", 1)[0]
        assert any(t.startswith(parent) for t in mate_profile.interests)


def test_q6_exclusion(queries, subject, live_system):
    baseline = queries.interest_mates(subject["user"], subject["query"], k=10)
    profiles = live_system.server.current_profiles()
    excluded = queries.interest_mates(
        subject["user"], subject["query"],
        exclude_query=subject["query"], k=10,
    )
    # Excluding the very theme we search for drops the strong fans.
    strong = {
        r["user_id"] for r in baseline.results if r["interest"] > 0.2
    }
    remaining = {r["user_id"] for r in excluded.results}
    assert strong.isdisjoint(remaining)


def test_answer_all(queries, subject):
    answers = queries.answer_all(
        subject["user"],
        topical_query=subject["query"],
        folder_path=subject["folder"],
    )
    assert set(answers) == {
        "q1_url_recall", "q2_neighborhood", "q3_fresh_sites",
        "q4_bill", "q5_topic_map", "q6_interest_mates",
    }
    assert answers["q4_bill"].found
    assert answers["q5_topic_map"].found


def test_community_consolidation(live_system):
    report = consolidate(live_system.server)
    assert report is not None
    assert report.taxonomy_depth >= 1
    assert report.themes
    shared = report.shared_themes()
    assert shared, "a focused community must share some themes"
    assert report.folder_to_theme
    # A folder's theme holds that user's folders.
    some_user, _ = next(iter(report.folder_to_theme))
    mine = {tid for (u, _), tid in report.folder_to_theme.items() if u == some_user}
    assert mine
    for theme in report.themes:
        if theme.theme_id in mine:
            assert any(u == some_user for u, _ in theme.member_folders)
    rendered = report.render()
    assert "Community taxonomy" in rendered
    for user, fit in report.user_fit.items():
        for theme_id, weight in fit:
            assert weight >= 0
