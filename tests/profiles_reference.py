"""The from-scratch profile and recommendation code the per-user cache
and the index reads replaced, kept as the differential oracle.

These are the bodies ``ThemeTaxonomy.assign``, ``build_profile``,
``MemexServer.current_profiles``, ``core.recommend.match_theme``,
``recommend_pages`` (with its ``_engagements``) and the scoring loop of
``DiscoveryDaemon.run_once`` had when every similarity re-normalised the
theme centre, every profile filtered the whole ``folder_pages`` table and
every recommendation scanned the whole ``visits`` table.  They keep no
state between calls, so whatever the server serves must equal them after
any sequence of writes.  Not a test module: the oracle tests import it.
"""

import math
from collections import defaultdict

from repro.core.profiles import UserProfile, profile_similarity, similar_users
from repro.errors import EmptyCorpus
from repro.server.daemons import Resource
from repro.storage.schema import ASSOC_BOOKMARK, ASSOC_CORRECTION
from repro.text.vectorize import cosine, text_vector

_DELIBERATE = (ASSOC_BOOKMARK, ASSOC_CORRECTION)


# -- ThemeTaxonomy: the tree re-walked, the centre re-normalised --------------

def _reference_leaves(taxonomy):
    themes = []
    for root in taxonomy.roots:
        themes.extend(root.walk())
    return [t for t in themes if t.is_leaf]


def _reference_assign(taxonomy, vector):
    leaves = _reference_leaves(taxonomy)
    if not leaves:
        raise EmptyCorpus("taxonomy has no themes")
    best = max(leaves, key=lambda t: (cosine(vector, t.center), t.theme_id))
    return best, cosine(vector, best.center)


def _reference_match_theme(server, query):
    taxonomy = server.themes.taxonomy
    if taxonomy is None:
        return None, 0.0
    qvec = text_vector(server.vectorizer.vocab, query)
    if not qvec:
        return None, 0.0
    best, best_sim = None, 0.0
    for theme in _reference_leaves(taxonomy):
        sim = cosine(qvec, theme.center)
        if sim > best_sim:
            best, best_sim = theme, sim
    return best, best_sim


# -- profiles: every user, every call, the whole folder_pages table -----------

def _reference_build_profile(repo, vectorizer, taxonomy, user_id):
    engagement = defaultdict(float)
    for visit in repo.user_visits(user_id):
        engagement[visit["url"]] += 1.0
    for row in repo.db.table("folder_pages").select(
        lambda r: r["source"] in _DELIBERATE
    ):
        folder = repo.db.table("folders").get(row["folder_id"])
        if folder is not None and folder["owner"] == user_id:
            engagement[row["url"]] += 3.0

    weights = defaultdict(float)
    pages = 0
    for url, strength in engagement.items():
        vec = vectorizer.tfidf_vector(url)
        if vec is None:
            continue
        theme, similarity = _reference_assign(taxonomy, vec)
        if similarity <= 0.0:
            continue
        weights[theme.theme_id] += math.log1p(strength) * similarity
        pages += 1

    total = sum(weights.values())
    if total > 0:
        weights = {t: w / total for t, w in weights.items()}
    return UserProfile(user_id=user_id, weights=dict(weights), pages=pages)


def profile_payloads(profiles):
    """What two profile maps are compared by: every float, every count."""
    return {user: profile.to_payload() for user, profile in profiles.items()}


def _reference_current_profiles(server):
    taxonomy = server.themes.taxonomy
    if taxonomy is None:
        return {}
    return {
        row["user_id"]: _reference_build_profile(
            server.repo, server.vectorizer, taxonomy, row["user_id"])
        for row in server.repo.db.table("users").scan()
    }


# -- recommend: both tables scanned whole, for every user ---------------------

def _reference_engagements(repo):
    out = defaultdict(lambda: defaultdict(float))
    for visit in repo.db.table("visits").scan():
        out[visit["user_id"]][visit["url"]] += 1.0
    for row in repo.db.table("folder_pages").select(
        lambda r: r["source"] in _DELIBERATE
    ):
        folder = repo.db.table("folders").get(row["folder_id"])
        if folder is not None:
            out[folder["owner"]][row["url"]] += 3.0
    return {u: dict(urls) for u, urls in out.items()}


def _reference_recommend_pages(
    repo, vectorizer, taxonomy, profiles, user_id,
    *, k=10, neighbors=5, min_similarity=0.05,
):
    """The ``pages`` payload rows of a ``recommend`` response."""
    me = profiles.get(user_id)
    if me is None:
        return []
    engagements = _reference_engagements(repo)
    seen = set(engagements.get(user_id, ()))
    peers = sorted(
        (
            (other, profile_similarity(me, profile))
            for other, profile in profiles.items()
            if other != user_id
        ),
        key=lambda kv: (-kv[1], kv[0]),
    )[:neighbors]

    scores = defaultdict(float)
    supporters = defaultdict(set)
    for peer, sim in peers:
        if sim < min_similarity:
            continue
        for url, strength in engagements.get(peer, {}).items():
            if url in seen:
                continue
            scores[url] += sim * strength
            supporters[url].add(peer)

    out = []
    for url, score in scores.items():
        theme_id = None
        theme_boost = 1.0
        if taxonomy is not None:
            vec = vectorizer.tfidf_vector(url)
            if vec is not None:
                theme, similarity = _reference_assign(taxonomy, vec)
                if similarity > 0.0:
                    theme_id = theme.theme_id
                    theme_boost = 1.0 + me.weights.get(theme.theme_id, 0.0) * 4.0
        out.append({
            "url": url,
            "score": score * theme_boost,
            "supporters": sorted(supporters[url]),
            "theme": theme_id,
        })
    out.sort(key=lambda r: (-r["score"], r["url"]))
    return out[:k]


# -- the three servlets, answered from the bodies above -----------------------
# (*profiles* is one ``_reference_current_profiles(server)`` result, so a
# caller checking several users builds the reference once per step)

def _reference_recommend(server, profiles, user_id, *, k=10):
    return {"pages": _reference_recommend_pages(
        server.repo, server.vectorizer, server.themes.taxonomy,
        profiles, user_id, k=k,
    )}


def _reference_profile_similar(profiles, user_id, *, k=5):
    ranked = similar_users(profiles, user_id, k=k)
    return {"users": [{"user_id": u, "similarity": s} for u, s in ranked]}


def _reference_interest_mates(
    server, profiles, user_id, query, *, exclude_query=None, k=5,
):
    theme, sim = _reference_match_theme(server, query)
    if theme is None or sim <= 0.0:
        return {"users": [], "theme": None}
    exclude_theme = None
    if exclude_query:
        exclude_theme, ex_sim = _reference_match_theme(server, exclude_query)
        if ex_sim <= 0.0:
            exclude_theme = None
    scored = []
    for other, profile in profiles.items():
        if other == user_id:
            continue
        weight = profile.weights.get(theme.theme_id, 0.0)
        if weight <= 0.0:
            continue
        if (
            exclude_theme is not None
            and profile.weights.get(exclude_theme.theme_id, 0.0) > 0.2
        ):
            continue
        scored.append({"user_id": other, "interest": weight})
    scored.sort(key=lambda d: (-d["interest"], d["user_id"]))
    return {
        "users": scored[:k],
        "theme": theme.theme_id,
        "theme_label": theme.label,
    }


# -- DiscoveryDaemon: tf-idf once per (theme, page), centre once per page -----

def _reference_discovery_scores(daemon, taxonomy):
    """``theme_id -> [Resource]`` as ``run_once`` ranked them."""
    repo = daemon.repo
    pages = [row for row in repo.db.table("pages").scan() if row["fetched"]]
    in_deg = defaultdict(int)
    for row in repo.db.table("links").scan():
        in_deg[row["dst"]] += 1
    max_deg = max(in_deg.values(), default=1) or 1
    now = daemon.clock()
    recommendations = {}
    for theme in _reference_leaves(taxonomy):
        scored = []
        for row in pages:
            vec = daemon.vectorizer.tfidf_vector(row["url"])
            if vec is None:
                continue
            sim = cosine(vec, theme.center)
            if sim <= 0.0:
                continue
            authority = math.log1p(in_deg[row["url"]]) / math.log1p(max_deg)
            age = max(0.0, now - row["first_seen"])
            freshness = max(0.0, 1.0 - age / daemon.FRESHNESS_HORIZON)
            score = (
                daemon.SIMILARITY_WEIGHT * sim
                + daemon.AUTHORITY_WEIGHT * authority
                + daemon.FRESHNESS_WEIGHT * freshness
            )
            scored.append(Resource(
                url=row["url"], score=score, authority=authority,
                similarity=sim, first_seen=row["first_seen"],
            ))
        scored.sort(key=lambda r: (-r.score, r.url))
        recommendations[theme.theme_id] = scored[: daemon.PER_THEME]
    return recommendations
