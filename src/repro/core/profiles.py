"""User profiles as theme-weight vectors.

§4: "'Normalizing' all members of the community to themes also lets us
represent surfers' interests in a canonical form: roughly speaking, a user
profile is a set of weights associated with each node of a theme
hierarchy; this gives us a means of comparing profiles that is far
superior to overlap in sets of URLs."

A profile is built by assigning every page the user engaged with to its
best theme and accumulating weights — deliberate bookmarks count more
than drive-by visits.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from ..mining.themes import Theme, ThemeTaxonomy
from ..server.daemons import PageVectorizer
from ..storage.repository import MemexRepository
from ..storage.schema import ASSOC_BOOKMARK, ASSOC_CORRECTION

BOOKMARK_WEIGHT = 3.0
VISIT_WEIGHT = 1.0


@dataclass
class UserProfile:
    """Theme-id -> normalized weight, plus bookkeeping."""

    user_id: str
    weights: dict[str, float] = field(default_factory=dict)
    pages: int = 0

    def top_themes(self, k: int = 3) -> list[tuple[str, float]]:
        return sorted(self.weights.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def to_payload(self) -> dict:
        return {
            "user_id": self.user_id,
            "weights": dict(self.weights),
            "pages": self.pages,
        }


class PageThemes:
    """Each page's best leaf theme under one taxonomy object at one idf
    generation (``vocab.num_docs``), assigned once and then looked up.

    An assignment is kept only when the generation it was computed at is
    this one: a page counted into the vocabulary meanwhile moved every
    idf weight, so a computation that straddled it is returned to its
    caller and not kept.  A page with no vector is never kept (it may be
    fetched later).  There is no invalidation: a new taxonomy or
    generation is a new object.
    """

    def __init__(
        self, vectorizer: PageVectorizer, taxonomy: ThemeTaxonomy, num_docs: int,
    ) -> None:
        self.vectorizer = vectorizer
        self.taxonomy = taxonomy
        self.num_docs = num_docs
        self._assigned: dict[str, tuple[Theme, float]] = {}

    def assign(self, url: str) -> tuple[Theme, float] | None:
        """``taxonomy.assign`` of the page's tf-idf vector; None when the
        page has no vector."""
        assigned = self._assigned.get(url)
        if assigned is not None:
            return assigned
        vec = self.vectorizer.tfidf_vector(url)
        if vec is None:
            return None
        assigned = self.taxonomy.assign(vec)
        if self.vectorizer.num_docs == self.num_docs:
            self._assigned[url] = assigned
        return assigned


def engagement(repo: MemexRepository, user_id: str) -> dict[str, float]:
    """url -> how strongly one user engaged with it: a visit counts
    :data:`VISIT_WEIGHT`, a deliberate bookmark or correction
    :data:`BOOKMARK_WEIGHT`.  Read through the ``visits.user_id``,
    ``folders.owner`` and ``folder_pages.folder_id`` indexes, so it costs
    what this user archived, not what the community did."""
    out: dict[str, float] = defaultdict(float)
    for visit in repo.user_visits(user_id):
        out[visit["url"]] += VISIT_WEIGHT
    bookmarks = [
        row
        for folder in repo.user_folders(user_id)
        for row in repo.folder_pages(
            folder["folder_id"], sources=(ASSOC_BOOKMARK, ASSOC_CORRECTION),
        )
    ]
    # In association order, whatever order the folders came in: a profile
    # sums floats page by page, so the order pages enter is part of it.
    for row in sorted(bookmarks, key=lambda r: r["assoc_id"]):
        out[row["url"]] += BOOKMARK_WEIGHT
    return dict(out)


def build_profile(
    repo: MemexRepository, themes: PageThemes, user_id: str,
) -> UserProfile:
    """Profile one user from their visits and deliberate bookmarks, each
    page assigned to its theme through *themes*."""
    weights: dict[str, float] = defaultdict(float)
    pages = 0
    for url, strength in engagement(repo, user_id).items():
        assigned = themes.assign(url)
        if assigned is None:
            continue
        theme, similarity = assigned
        if similarity <= 0.0:
            continue
        # Damp raw engagement so one binge session doesn't own the profile.
        weights[theme.theme_id] += math.log1p(strength) * similarity
        pages += 1

    total = sum(weights.values())
    if total > 0:
        weights = defaultdict(float, {t: w / total for t, w in weights.items()})
    return UserProfile(user_id=user_id, weights=dict(weights), pages=pages)


def profile_similarity(a: UserProfile, b: UserProfile) -> float:
    """Cosine over theme weights — the 'far superior to URL overlap' metric."""
    dot = sum(w * b.weights.get(t, 0.0) for t, w in a.weights.items())
    na = math.sqrt(sum(w * w for w in a.weights.values()))
    nb = math.sqrt(sum(w * w for w in b.weights.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def url_overlap_similarity(
    repo: MemexRepository, user_a: str, user_b: str
) -> float:
    """The baseline the paper dismisses: Jaccard overlap of visited URLs."""
    urls_a = {v["url"] for v in repo.user_visits(user_a)}
    urls_b = {v["url"] for v in repo.user_visits(user_b)}
    union = urls_a | urls_b
    if not union:
        return 0.0
    return len(urls_a & urls_b) / len(union)


def similar_users(
    profiles: dict[str, UserProfile], user_id: str, *, k: int = 5,
) -> list[tuple[str, float]]:
    """The k most profile-similar other users."""
    me = profiles.get(user_id)
    if me is None:
        return []
    scored = [
        (other, profile_similarity(me, profile))
        for other, profile in profiles.items()
        if other != user_id
    ]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:k]
