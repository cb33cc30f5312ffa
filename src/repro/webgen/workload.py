"""Pre-packaged workloads for the examples and benchmarks.

A :class:`Workload` bundles everything one experiment needs — taxonomy,
corpus, link graph, surfer profiles, and the time-ordered event stream —
generated deterministically from a seed so every benchmark run sees the
same simulated community.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..mining.linkanalysis import LinkGraph
from .corpus import WebCorpus, generate_corpus
from .graph import generate_links
from .surfer import (
    SimulationResult,
    SurferProfile,
    make_profile,
    simulate_surfers,
)
from .topictree import TopicNode, community_interests, master_taxonomy


@dataclass
class Workload:
    """One fully generated simulation scenario."""

    name: str
    root: TopicNode
    corpus: WebCorpus
    graph: LinkGraph
    profiles: list[SurferProfile]
    result: SimulationResult
    community: dict[str, float]

    @property
    def events(self):
        return self.result.events


def build_workload(
    *,
    name: str = "default",
    taxonomy: TopicNode | None = None,
    seed: int = 42,
    num_users: int = 12,
    days: float = 30.0,
    pages_per_leaf: int = 25,
    front_page_fraction: float = 0.3,
    num_core_interests: int = 3,
    num_fringe_interests: int = 2,
    community_core: int = 4,
    community_fringe: int = 4,
    sibling_bias: bool = True,
    topical_mass: float = 0.55,
    front_topical_mass: float | None = None,
    ancestor_share: float = 0.35,
    sessions_per_day: float | None = None,
    bookmark_prob: float | None = None,
    functional_bookmark_prob: float | None = None,
    late_page_fraction: float = 0.0,
) -> Workload:
    """Generate a deterministic end-to-end workload.

    The defaults produce a laptop-scale scenario (~1000 pages, ~12 users,
    a month of surfing) comparable to the paper's volunteer deployment.
    *late_page_fraction* makes that share of pages appear mid-simulation
    (uniformly over the run), for fresh-resource experiments.
    """
    from .surfer import DAY

    rng = random.Random(seed)
    root = taxonomy if taxonomy is not None else master_taxonomy()
    corpus = generate_corpus(
        root, rng,
        pages_per_leaf=pages_per_leaf,
        front_page_fraction=front_page_fraction,
        topical_mass=topical_mass,
        front_topical_mass=front_topical_mass,
        ancestor_share=ancestor_share,
        late_fraction=late_page_fraction,
        birth_window=days * DAY,
    )
    graph = generate_links(corpus, rng)
    community = community_interests(
        root, rng,
        num_core=community_core, num_fringe=community_fringe,
        sibling_bias=sibling_bias,
    )
    profiles = []
    for i in range(num_users):
        profile = make_profile(
            f"user{i:02d}", root, rng,
            community_interests=community,
            num_core=num_core_interests,
            num_fringe=num_fringe_interests,
        )
        if sessions_per_day is not None:
            profile.sessions_per_day = sessions_per_day
        if bookmark_prob is not None:
            profile.bookmark_prob = bookmark_prob
        if functional_bookmark_prob is not None:
            profile.functional_bookmark_prob = functional_bookmark_prob
        profiles.append(profile)
    result = simulate_surfers(corpus, graph, profiles, rng, days=days)
    return Workload(
        name=name,
        root=root,
        corpus=corpus,
        graph=graph,
        profiles=profiles,
        result=result,
        community=community,
    )


def bookmark_challenge_workload(*, seed: int = 7, num_users: int = 12) -> Workload:
    """The E1 preset: the bookmark-classification regime of §4.

    Bookmarks land mostly on sparse, nearly topic-free front pages; users
    hold many mutually-confusable sibling folders; a few bookmarks are
    purely functional.  Calibrated so the text-only Bayesian classifier
    scores ~40 % while the enhanced text+link+folder classifier scores
    ~80 % — the paper's headline numbers.
    """
    return build_workload(
        name="bookmark-challenge",
        seed=seed,
        num_users=num_users,
        days=60,
        pages_per_leaf=25,
        front_page_fraction=0.9,
        topical_mass=0.2,
        front_topical_mass=0.03,
        ancestor_share=0.7,
        bookmark_prob=0.25,
        num_core_interests=8,
        num_fringe_interests=2,
        community_core=10,
        community_fringe=2,
        functional_bookmark_prob=0.08,
    )


def labelled_bookmark_dataset(
    workload: Workload,
    *,
    min_per_folder: int = 3,
) -> list[tuple[str, str, str]]:
    """Extract ``(user_id, url, folder_path)`` triples from the workload's
    bookmark events — the training data of E1.  Folders with fewer than
    *min_per_folder* bookmarks are dropped (too small to learn or test)."""
    from ..server.events import BookmarkEvent

    triples = [
        (e.user_id, e.url, e.folder_path)
        for e in workload.events
        if isinstance(e, BookmarkEvent)
    ]
    counts: dict[tuple[str, str], int] = {}
    for user_id, _, folder in triples:
        counts[(user_id, folder)] = counts.get((user_id, folder), 0) + 1
    return [
        (user_id, url, folder)
        for user_id, url, folder in triples
        if counts[(user_id, folder)] >= min_per_folder
    ]
