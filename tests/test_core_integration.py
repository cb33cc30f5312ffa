"""Integration tests: the full Memex pipeline on a replayed community."""

import pytest

from repro.core import MemexSystem
from repro.core.archive import folder_id
from repro.server.events import BookmarkEvent, VisitEvent
from repro.storage.schema import ASSOC_GUESS
from repro.webgen import build_workload


def _any_user_with_folders(system):
    for row in system.server.repo.db.table("users").scan():
        if system.server.repo.user_folders(row["user_id"]):
            return row["user_id"]
    raise AssertionError("no user with folders")


def test_replay_archived_everything(live_system, small_workload):
    repo = live_system.server.repo
    visits = [e for e in small_workload.events if isinstance(e, VisitEvent)]
    assert len(repo.db.table("visits")) == len(visits)
    bms = [e for e in small_workload.events if isinstance(e, BookmarkEvent)]
    # Every page a user bookmarked into a folder is filed there once,
    # however often it was bookmarked there.
    deliberate = repo.db.table("folder_pages").count(
        lambda r: r["source"] == "bookmark"
    )
    assert deliberate == len({(e.user_id, e.folder_path, e.url) for e in bms})


def test_crawler_fetched_all_visited_pages(live_system):
    repo = live_system.server.repo
    assert live_system.server.crawler.backlog == 0
    for visit in repo.db.table("visits").scan():
        page = repo.db.table("pages").get(visit["url"])
        assert page is not None and page["fetched"]


def test_index_covers_fetched_pages(live_system):
    repo = live_system.server.repo
    fetched = repo.db.table("pages").count(lambda r: r["fetched"])
    assert live_system.server.index.num_docs == fetched


def test_versioning_consumers_caught_up(live_system):
    versions = live_system.server.repo.versions
    assert versions.staleness("indexer") == 0
    assert versions.staleness("classifier") == 0


def test_most_visits_classified(live_system):
    repo = live_system.server.repo
    visits = repo.db.table("visits").select()
    classified = [v for v in visits if v["topic_folder"] is not None]
    assert len(classified) / len(visits) > 0.8


def test_classifier_guesses_appear_in_folder_view(live_system):
    user = _any_user_with_folders(live_system)
    applet = live_system.connect(user)
    view = applet.folder_view()
    items = [i for f in view["folders"] for i in f["items"]]
    assert any(i["guess"] for i in items)
    assert any(not i["guess"] for i in items)
    for item in items:
        if item["guess"]:
            assert item["source"] == ASSOC_GUESS


def test_classification_accuracy_against_ground_truth(live_system, small_workload):
    """Classifier guesses should agree with the simulator's ground truth
    far beyond chance."""
    repo = live_system.server.repo
    server = live_system.server
    correct = total = 0
    for profile in small_workload.profiles:
        # Map each folder path to its ground-truth topics.
        for visit in repo.user_visits(profile.user_id):
            if visit["topic_folder"] is None:
                continue
            true_topic = small_workload.corpus.topic_of(visit["url"])
            want_folder = profile.folder_for_topic(true_topic)
            if want_folder is None:
                continue  # page's topic has no folder: no ground truth
            total += 1
            if visit["topic_folder"] == folder_id(profile.user_id, want_folder):
                correct += 1
    assert total > 50
    num_folders = sum(len(p.folders) for p in small_workload.profiles) / len(
        small_workload.profiles
    )
    chance = 1.0 / num_folders
    assert correct / total > max(2 * chance, 0.4)


def test_search_servlet_end_to_end(live_system, small_workload):
    user = small_workload.profiles[0].user_id
    applet = live_system.connect(user)
    # Query with a topic's seed vocabulary; results should be that topic.
    top_topic = max(
        small_workload.profiles[0].interests.items(), key=lambda kv: kv[1]
    )[0]
    leaf = small_workload.root.find(top_topic)
    query = " ".join(leaf.seed_terms[:3])
    hits = applet.search(query, k=5)
    assert hits
    top_topics = [small_workload.corpus.topic_of(h["url"]) for h in hits[:3]]
    assert any(t == top_topic for t in top_topics)


def test_search_scope_mine(live_system, small_workload):
    user = small_workload.profiles[0].user_id
    applet = live_system.connect(user)
    repo = live_system.server.repo
    mine = {v["url"] for v in repo.user_visits(user)}
    hits = applet.search("links home welcome", k=20, scope="mine")
    assert all(h["url"] in mine for h in hits)


def test_trail_view(live_system, small_workload):
    profile = small_workload.profiles[0]
    top_topic = max(profile.interests.items(), key=lambda kv: kv[1])[0]
    folder = profile.folder_for_topic(top_topic)
    applet = live_system.connect(profile.user_id)
    view = applet.trail_view(folder, window_days=30)
    trail = view["trail"]
    assert trail["nodes"], "trail should replay recent topical pages"
    scores = [n["score"] for n in trail["nodes"]]
    assert scores == sorted(scores, reverse=True)
    urls = {n["url"] for n in trail["nodes"]}
    for edge in trail["edges"]:
        assert edge["src"] in urls and edge["dst"] in urls
    # Trail pages are topically right far beyond chance.  Precision is
    # capped by corpus size here (only pages_per_leaf=10 pages of the
    # topic exist at all), so compare against that ceiling and chance.
    covered = set(profile.folders[folder])
    on_topic = sum(
        1 for n in trail["nodes"]
        if small_workload.corpus.topic_of(n["url"]) in covered
    )
    ceiling = min(len(trail["nodes"]), 10 * len(covered))
    chance = 10 * len(covered) / len(small_workload.corpus)
    assert on_topic / len(trail["nodes"]) > max(10 * chance, 0.25)
    assert on_topic >= 0.7 * ceiling


def test_context_view(live_system, small_workload):
    profile = small_workload.profiles[0]
    top_topic = max(profile.interests.items(), key=lambda kv: kv[1])[0]
    folder = profile.folder_for_topic(top_topic)
    applet = live_system.connect(profile.user_id)
    view = applet.context_view(folder)
    assert view["found"]
    session = view["session"]
    assert session["user_id"] == profile.user_id
    assert session["trail"]
    assert session["on_topic"]
    assert set(session["on_topic"]) <= set(session["trail"])
    # The neighborhood includes the session's own pages.
    hood_urls = {n["url"] for n in view["neighborhood"]["nodes"]}
    assert set(session["trail"]) <= hood_urls


def test_context_unknown_folder(live_system, small_workload):
    applet = live_system.connect(small_workload.profiles[0].user_id)
    view = applet.context_view("No/Such/Folder")
    assert view["found"] is False


def test_themes_exist_and_group_users(live_system):
    user = _any_user_with_folders(live_system)
    themes = live_system.connect(user).themes()
    assert themes

    def flatten(ts):
        for t in ts:
            yield t
            yield from flatten(t["children"])

    all_themes = list(flatten(themes))
    # At least one theme captures a common factor (multiple users).
    assert any(t["num_users"] >= 2 for t in all_themes)


def test_quiescent_themes_do_not_depend_on_when_the_daemons_ticked():
    """The same history, mined at three cadences (the last never ticks
    before the end), leaves the same taxonomy: the theme daemon batches
    while bookmarks and pages arrive but catches up before quiescence,
    instead of staying up to ``rebuild_after`` bookmarks behind."""
    workload = build_workload(seed=23, num_users=4, days=2, pages_per_leaf=12)
    user = workload.profiles[0].user_id
    seen = []
    for tick_every in (17, 100, 10 ** 9):
        system = MemexSystem.from_workload(workload)
        system.replay(workload.events, tick_every=tick_every)
        seen.append(system.connect(user).themes())
    assert seen[0] and seen[0] == seen[1] == seen[2]


def test_resources_servlet(live_system, small_workload):
    profile = small_workload.profiles[0]
    top_topic = max(profile.interests.items(), key=lambda kv: kv[1])[0]
    leaf = small_workload.root.find(top_topic)
    applet = live_system.connect(profile.user_id)
    resources = applet.resources(" ".join(leaf.seed_terms[:4]), k=5)
    assert resources
    for res in resources:
        assert res["score"] > 0


def test_bill_servlet(live_system, small_workload):
    user = small_workload.profiles[0].user_id
    applet = live_system.connect(user)
    bill = applet.bill(days=30, monthly_rate=25.0)
    lines = bill["lines"]
    assert lines
    assert sum(l["amount"] for l in lines) == pytest.approx(25.0)
    assert sum(l["share"] for l in lines) == pytest.approx(1.0)


def test_profiles_and_similarity(live_system, small_workload):
    profiles = live_system.server.current_profiles()
    assert set(profiles) == {p.user_id for p in small_workload.profiles}
    me = small_workload.profiles[0].user_id
    applet = live_system.connect(me)
    similar = applet.similar_users(k=3)
    assert len(similar) == 3
    sims = [s["similarity"] for s in similar]
    assert sims == sorted(sims, reverse=True)
    assert all(s["user_id"] != me for s in similar)


def test_recommendations(live_system, small_workload):
    user = small_workload.profiles[0].user_id
    applet = live_system.connect(user)
    recs = applet.recommendations(k=5)
    seen = {v["url"] for v in live_system.server.repo.user_visits(user)}
    for rec in recs:
        assert rec["url"] not in seen
        assert rec["supporters"]


def test_stats_servlet(live_system):
    user = _any_user_with_folders(live_system)
    stats = live_system.server.registry.dispatch(
        {"servlet": "stats", "user_id": user}
    )
    assert stats["status"] == "ok"
    assert stats["pages"] > 0
    assert stats["servlets"]["served"] > 0
    assert not any(d["quarantined"] for d in stats["daemons"].values())


def test_folder_move_correction_flow(live_system, small_workload):
    """Figure 1: the user corrects a guess; supervision strengthens."""
    repo = live_system.server.repo
    server = live_system.server
    user = _any_user_with_folders(live_system)
    applet = live_system.connect(user)
    view = applet.folder_view()
    guess = None
    for folder in view["folders"]:
        for item in folder["items"]:
            if item["guess"]:
                guess = (folder["path"], item["url"])
                break
        if guess:
            break
    assert guess is not None
    from_path, url = guess
    applet.move_bookmark(url, None, "Corrected", at=server.now + 1.0)
    rows = repo.db.table("folder_pages").select({"url": url})
    mine = [
        r for r in rows
        if repo.db.table("folders").get(r["folder_id"])["owner"] == user
    ]
    assert all(r["source"] != ASSOC_GUESS for r in mine)
    assert any(
        r["source"] == "correction"
        and r["folder_id"] == folder_id(user, "Corrected")
        for r in mine
    )
