"""E9 — the paper's stated next step (§4): collaborative recommendation.

> "'Normalizing' all members of the community to themes also lets us
> represent surfers' interests in a canonical form ... We intend to use
> this for better collaborative recommendation [10]."

The paper only *intends* this, so there is no number to match; we build
the evaluation it would have run: recommend pages to each user from their
profile-neighbors' trails, and score against simulator ground truth
(a recommended page is *relevant* when its true topic is one of the
user's ground-truth interests).  Baselines: random unseen pages, and
most-popular unseen pages (non-collaborative).  Ungar-Foster-style user
clustering is checked against ground-truth interest groups.
"""

import random

import pytest

from repro.core import MemexSystem
from repro.core.recommend import cluster_users, recommend_pages
from repro.mining.evaluation import precision_at_k
from repro.webgen import build_workload


@pytest.fixture(scope="module")
def reco_workload():
    """Sparse regime: many pages per topic, short horizon — users have
    plenty of *unseen* relevant pages and peers discover different
    subsets, which is when collaboration has something to contribute."""
    return build_workload(
        seed=99, num_users=12, days=10, pages_per_leaf=60,
        community_core=5, community_fringe=2, bookmark_prob=0.25,
    )


@pytest.fixture(scope="module")
def reco_setup(reco_workload):
    system = MemexSystem.from_workload(reco_workload)
    system.replay(reco_workload.events)
    server = system.server
    themes, profiles = server.profiles_and_themes()
    gt = {p.user_id: p.interests for p in reco_workload.profiles}
    seen = {
        uid: {v["url"] for v in server.repo.user_visits(uid)}
        for uid in gt
    }
    return server, themes, profiles, gt, seen


def _relevant(workload, gt, uid):
    interests = set(gt[uid])
    return {
        url for url, page in workload.corpus.pages.items()
        if page.topic in interests
    }


@pytest.fixture(scope="module")
def precision_rows(reco_setup, reco_workload):
    default_workload = reco_workload
    server, themes, profiles, gt, seen = reco_setup
    rng = random.Random(3)
    all_urls = default_workload.corpus.urls()
    rows = []
    popularity = {}
    for v in server.repo.db.table("visits").scan():
        popularity[v["url"]] = popularity.get(v["url"], 0) + 1
    for uid in sorted(gt):
        relevant = _relevant(default_workload, gt, uid) - seen[uid]
        if not relevant:
            continue
        recs = recommend_pages(server.repo, themes, profiles, uid, k=10)
        cf = precision_at_k([r.url for r in recs], relevant, 10)
        unseen = [u for u in all_urls if u not in seen[uid]]
        rand = precision_at_k(rng.sample(unseen, 10), relevant, 10)
        pop = precision_at_k(
            sorted(unseen, key=lambda u: -popularity.get(u, 0))[:10],
            relevant, 10,
        )
        rows.append((uid, cf, pop, rand))
    print("\nE9: recommendation precision@10 (relevant = in user's true interests)")
    print("  user     collaborative   most-popular   random")
    for uid, cf, pop, rand in rows:
        print(f"  {uid:<8} {cf:14.2f} {pop:14.2f} {rand:8.2f}")
    mean = lambda i: sum(r[i] for r in rows) / len(rows)  # noqa: E731
    print(f"  mean     {mean(1):14.2f} {mean(2):14.2f} {mean(3):8.2f}")
    return rows


def test_e9_collaborative_beats_random(precision_rows):
    mean_cf = sum(r[1] for r in precision_rows) / len(precision_rows)
    mean_rand = sum(r[3] for r in precision_rows) / len(precision_rows)
    assert mean_cf > mean_rand + 0.2


def test_e9_collaborative_beats_popularity(precision_rows):
    mean_cf = sum(r[1] for r in precision_rows) / len(precision_rows)
    mean_pop = sum(r[2] for r in precision_rows) / len(precision_rows)
    assert mean_cf > mean_pop


def test_e9_user_clustering_matches_ground_truth(reco_setup):
    """Ungar-Foster user clusters group ground-truth-similar users."""
    server, themes, profiles, gt, _seen = reco_setup
    groups = cluster_users(profiles, k=3)
    # Within-group ground-truth similarity must beat across-group.
    import math

    def gt_sim(a, b):
        keys = set(gt[a]) | set(gt[b])
        dot = sum(gt[a].get(x, 0) * gt[b].get(x, 0) for x in keys)
        na = math.sqrt(sum(v * v for v in gt[a].values()))
        nb = math.sqrt(sum(v * v for v in gt[b].values()))
        return dot / (na * nb) if na and nb else 0.0

    within, across = [], []
    users = sorted(gt)
    group_of = {}
    for gi, group in enumerate(groups):
        for uid in group:
            group_of[uid] = gi
    for i, a in enumerate(users):
        for b in users[i + 1:]:
            (within if group_of[a] == group_of[b] else across).append(gt_sim(a, b))
    if within and across:
        assert sum(within) / len(within) > sum(across) / len(across)


def test_e9_recommendations_exclude_seen(reco_setup):
    server, themes, profiles, gt, seen = reco_setup
    for uid in sorted(gt)[:3]:
        recs = recommend_pages(server.repo, themes, profiles, uid, k=10)
        assert all(r.url not in seen[uid] for r in recs)
        assert all(r.supporters for r in recs)


def test_e9_bench_recommendation(benchmark, reco_setup, precision_rows):
    server, themes, profiles, gt, _seen = reco_setup
    uid = sorted(gt)[0]

    def recommend():
        return recommend_pages(server.repo, themes, profiles, uid, k=10)

    recs = benchmark(recommend)
    benchmark.extra_info["mean_precision_at_10"] = round(
        sum(r[1] for r in precision_rows) / len(precision_rows), 3,
    )
    assert recs
