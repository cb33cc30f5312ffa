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

from ..mining.hac import cluster_vectors
from ..mining.themes import ThemeTaxonomy
from ..server.daemons import PageVectorizer
from ..storage.repository import MemexRepository
from .profiles import UserProfile, engagement, profile_similarity


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
    vectorizer: PageVectorizer,
    taxonomy: ThemeTaxonomy | None,
    profiles: dict[str, UserProfile],
    user_id: str,
    *,
    k: int = 10,
    neighbors: int = 5,
    min_similarity: float = 0.05,
) -> list[Recommendation]:
    """Pages the user's profile-neighbors value that the user hasn't seen."""
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
        if taxonomy is not None:
            vec = vectorizer.tfidf_vector(url)
            if vec is not None:
                theme, similarity = taxonomy.assign(vec)
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
