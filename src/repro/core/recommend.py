"""Collaborative recommendation over theme profiles.

§4 ends: "we intend to use this for better collaborative recommendation
[10]" (Ungar & Foster's clustered collaborative filtering).  We implement
both pieces:

* :func:`recommend_pages` — neighborhood CF: pages engaged by
  profile-similar users, weighted by their similarity and by how well the
  page matches the target user's strong themes;
* :func:`cluster_users` — the Ungar-Foster move of clustering users (here
  by theme profile, with HAC) so recommendation pools form within
  like-minded groups.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from ..mining.hac import cluster_vectors
from ..mining.themes import Theme
from ..storage.repository import MemexRepository
from ..text.vectorize import query_vector
from .profiles import (
    PageThemes,
    UserProfile,
    engagement,
    profile_similarity,
    similar_users,
)
from .request import (
    DAY,
    Request,
    Response,
    Server,
    User,
    number_field,
    text_field,
    top_k,
)


@dataclass
class Recommendation:
    url: str
    score: float
    supporters: list[str]       # users whose engagement produced it
    theme_id: str | None = None

    def to_payload(self) -> dict:
        return {
            "url": self.url,
            "score": self.score,
            "supporters": self.supporters,
            "theme": self.theme_id,
        }


def recommend_pages(
    repo: MemexRepository,
    themes: PageThemes | None,
    profiles: dict[str, UserProfile],
    user_id: str,
    *,
    k: int = 10,
    neighbors: int = 5,
    min_similarity: float = 0.05,
) -> list[Recommendation]:
    """Pages the user's profile-neighbors value that the user hasn't seen,
    each assigned to its theme through *themes* (the memo the profiles
    were built through; None when there is no taxonomy)."""
    me = profiles.get(user_id)
    if me is None:
        return []
    seen = set(engagement(repo, user_id))
    peers = sorted(
        (
            (other, profile_similarity(me, profile))
            for other, profile in profiles.items()
            if other != user_id
        ),
        key=lambda kv: (-kv[1], kv[0]),
    )[:neighbors]

    scores: dict[str, float] = defaultdict(float)
    supporters: dict[str, set[str]] = defaultdict(set)
    for peer, sim in peers:
        if sim < min_similarity:
            continue
        for url, strength in engagement(repo, peer).items():
            if url in seen:
                continue
            scores[url] += sim * strength
            supporters[url].add(peer)

    out: list[Recommendation] = []
    for url, score in scores.items():
        theme_id = None
        theme_boost = 1.0
        assigned = None if themes is None else themes.assign(url)
        if assigned is not None:
            theme, similarity = assigned
            if similarity > 0.0:
                theme_id = theme.theme_id
                # Boost pages in the user's own strong themes.
                theme_boost = 1.0 + me.weights.get(theme.theme_id, 0.0) * 4.0
        out.append(Recommendation(
            url=url,
            score=score * theme_boost,
            supporters=sorted(supporters[url]),
            theme_id=theme_id,
        ))
    out.sort(key=lambda r: (-r.score, r.url))
    return out[:k]


def cluster_users(
    profiles: dict[str, UserProfile],
    *,
    k: int,
) -> list[list[str]]:
    """Group users into k interest clusters by theme profile (HAC).

    Users with empty profiles (nothing archived yet) land in their own
    trailing singleton groups.
    """
    named = sorted(profiles)
    with_mass = [u for u in named if profiles[u].weights]
    empty = [u for u in named if not profiles[u].weights]
    if not with_mass:
        return [[u] for u in empty]
    theme_ids = sorted({t for u in with_mass for t in profiles[u].weights})
    tid_index = {t: i for i, t in enumerate(theme_ids)}
    vectors = [
        {tid_index[t]: w for t, w in profiles[u].weights.items()}
        for u in with_mass
    ]
    groups = cluster_vectors(vectors, min(k, len(with_mass)))
    out = [[with_mass[i] for i in group] for group in groups]
    out.extend([[u] for u in empty])
    return out


# -- the community-mining servlets ---------------------------------------------------

def match_theme(server: Server, query: str) -> tuple[Theme | None, float]:
    """Best (theme, similarity) for a free-text topic query."""
    taxonomy = server.themes.taxonomy
    if taxonomy is None:
        return None, 0.0
    qvec = query_vector(server.vectorizer.vocab, query)
    if not qvec:
        return None, 0.0
    best, best_sim = None, 0.0
    for theme, sim in zip(taxonomy.leaves(), taxonomy.similarities(qvec)):
        if sim > best_sim:
            best, best_sim = theme, sim
    return best, best_sim


def serve_themes_get(server: Server, user: User, request: Request) -> Response:
    taxonomy = server.themes.taxonomy
    if taxonomy is None:
        return {"themes": []}

    def payload(theme: Theme, depth: int) -> dict[str, Any]:
        return {
            "theme_id": theme.theme_id,
            "label": theme.label,
            "depth": depth,
            "folders": [list(f) for f in theme.folders],
            "num_users": theme.num_users,
            "weight": theme.weight,
            "children": [payload(c, depth + 1) for c in theme.children],
        }

    return {"themes": [payload(t, 0) for t in taxonomy.roots]}


def serve_resources(server: Server, user: User, request: Request) -> Response:
    k = top_k(request, 10)
    since_days = number_field(request, "since_days", None)
    theme, sim = match_theme(server, text_field(request, "query"))
    if theme is None or sim <= 0.0:
        return {"resources": [], "theme": None}
    out = []
    for res in server.discovery.for_theme(theme.theme_id):
        if len(out) >= k:
            break
        if since_days is not None and res.first_seen < server.now - since_days * DAY:
            continue
        page = server.repo.db.table("pages").get(res.url)
        out.append({
            "url": res.url,
            "title": (page or {}).get("title"),
            "score": res.score,
            "authority": res.authority,
            "similarity": res.similarity,
            "first_seen": res.first_seen,
        })
    return {"resources": out, "theme": theme.theme_id, "theme_label": theme.label}


def serve_profile_similar(server: Server, user: User, request: Request) -> Response:
    k = top_k(request, 5)
    ranked = similar_users(server.current_profiles(), user["user_id"], k=k)
    return {"users": [{"user_id": u, "similarity": s} for u, s in ranked]}


def serve_interest_mates(server: Server, user: User, request: Request) -> Response:
    k = top_k(request, 5)
    theme, sim = match_theme(server, text_field(request, "query"))
    if theme is None or sim <= 0.0:
        return {"users": [], "theme": None}
    exclude_theme = None
    exclude_query = text_field(request, "exclude_query", "")
    if exclude_query:
        exclude_theme, ex_sim = match_theme(server, exclude_query)
        if ex_sim <= 0.0:
            exclude_theme = None
    scored = []
    for other, profile in server.current_profiles().items():
        if other == user["user_id"]:
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


def serve_recommend(server: Server, user: User, request: Request) -> Response:
    k = top_k(request, 10)
    # One read: the taxonomy the profiles were built from, not whatever
    # ThemeDaemon has swapped in since.
    themes, profiles = server.profiles_and_themes()
    recs = recommend_pages(server.repo, themes, profiles, user["user_id"], k=k)
    return {"pages": [r.to_payload() for r in recs]}
