"""Stochastic topical surfers: the simulated volunteers.

Each surfer has a ground-truth interest profile over leaf topics and a
personal folder tree covering their core interests (with personal names —
two users interested in the same leaf usually call their folders different
things, the individuality theme discovery must respect).  A surfer's life
is a sequence of *sessions*; each session is about one topic and is a
biased walk over the hyperlink graph: follow an on-topic out-link when one
exists, otherwise jump back to a known on-topic page.  On-topic pages get
bookmarked with some probability; occasionally a surfer files an off-topic
page into a topical folder for *functional* reasons — the paper's explicit
hard case for text-only classification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..mining.linkanalysis import LinkGraph
from ..server.events import (
    BookmarkEvent,
    FolderCreateEvent,
    SurfEvent,
    VisitEvent,
)
from .corpus import WebCorpus
from .topictree import TopicNode

DAY = 86_400.0

# Personal naming variants: how a user might label a folder for a leaf
# topic whose taxonomy label is X.
_NAMING_STYLES = [
    lambda label: label,
    lambda label: label.lower(),
    lambda label: f"My {label}",
    lambda label: f"{label} stuff",
    lambda label: f"{label} links",
]


@dataclass
class SurferProfile:
    """Ground truth for one simulated user."""

    user_id: str
    interests: dict[str, float]            # leaf topic -> probability
    folders: dict[str, list[str]]          # folder path -> covered leaf topics
    sessions_per_day: float = 2.0
    session_length: tuple[int, int] = (4, 15)
    bookmark_prob: float = 0.12
    functional_bookmark_prob: float = 0.02
    jump_prob: float = 0.2
    # People disproportionately bookmark front/entry pages (§4): multiplier
    # applied to bookmark_prob when the current page is a front page.
    front_page_bookmark_bias: float = 3.0

    def folder_for_topic(self, topic: str) -> str | None:
        for path, topics in self.folders.items():
            if topic in topics:
                return path
        return None


def make_profile(
    user_id: str,
    root: TopicNode,
    rng: random.Random,
    *,
    community_interests: dict[str, float] | None = None,
    num_core: int = 3,
    num_fringe: int = 2,
    community_adherence: float = 0.7,
) -> SurferProfile:
    """Draw one surfer's ground truth.

    When *community_interests* is given, the surfer mostly samples their
    core topics from it (weighted), so a community's members overlap
    without being identical.
    """
    leaves = [l.name for l in root.leaves()]
    core: list[str] = []
    if community_interests:
        names = list(community_interests)
        weights = [community_interests[n] for n in names]
        while len(core) < num_core:
            if rng.random() < community_adherence:
                pick = rng.choices(names, weights)[0]
            else:
                pick = rng.choice(leaves)
            if pick not in core:
                core.append(pick)
    else:
        core = rng.sample(leaves, num_core)
    fringe_pool = [l for l in leaves if l not in core]
    fringe = rng.sample(fringe_pool, min(num_fringe, len(fringe_pool)))

    interests: dict[str, float] = {}
    for topic in core:
        interests[topic] = rng.uniform(0.5, 1.0)
    for topic in fringe:
        interests[topic] = rng.uniform(0.05, 0.15)
    total = sum(interests.values())
    interests = {t: w / total for t, w in interests.items()}

    # Personal folder tree over the core topics: usually one folder per
    # core topic; sometimes two core topics merged into one folder
    # (individual coarse view); fringe topics get no folder.
    folders: dict[str, list[str]] = {}
    topics_left = list(core)
    rng.shuffle(topics_left)
    while topics_left:
        topic = topics_left.pop()
        covered = [topic]
        if topics_left and rng.random() < 0.15:
            covered.append(topics_left.pop())
        label = topic.rsplit("/", 1)[-1]
        style = rng.choice(_NAMING_STYLES)
        path = style(label)
        # Nest under a personal parent occasionally.
        if rng.random() < 0.3:
            parent = topic.split("/", 1)[0]
            path = f"{parent}/{path}"
        folders[path] = covered
    return SurferProfile(user_id=user_id, interests=interests, folders=folders)


@dataclass
class SimulationResult:
    """Everything a run produced, for replay and evaluation."""

    events: list[SurfEvent]
    profiles: dict[str, SurferProfile]
    corpus: WebCorpus
    graph: LinkGraph
    duration_days: float


def simulate_surfers(
    corpus: WebCorpus,
    graph: LinkGraph,
    profiles: list[SurferProfile],
    rng: random.Random,
    *,
    days: float = 30.0,
    start_at: float = 0.0,
) -> SimulationResult:
    """Run all surfers for *days* simulated days; returns time-ordered events."""
    by_topic: dict[str, list[str]] = {}
    for page in corpus.pages.values():
        by_topic.setdefault(page.topic, []).append(page.url)

    events: list[SurfEvent] = []
    session_counter = 0

    for profile in profiles:
        # Folder creations happen at sign-up time.
        for path in profile.folders:
            events.append(FolderCreateEvent(profile.user_id, start_at, path))

        t = start_at
        end = start_at + days * DAY
        while True:
            # Next session start: exponential inter-arrival.
            gap = rng.expovariate(profile.sessions_per_day / DAY)
            t += gap
            if t >= end:
                break
            session_counter += 1
            topics = list(profile.interests)
            weights = [profile.interests[x] for x in topics]
            topic = rng.choices(topics, weights)[0]
            events.extend(
                _run_session(
                    profile, topic, t, session_counter,
                    corpus, graph, by_topic, rng,
                )
            )

    events.sort(key=lambda e: e.at)
    return SimulationResult(
        events=events,
        profiles={p.user_id: p for p in profiles},
        corpus=corpus,
        graph=graph,
        duration_days=days,
    )


def _run_session(
    profile: SurferProfile,
    topic: str,
    start: float,
    session_id: int,
    corpus: WebCorpus,
    graph: LinkGraph,
    by_topic: dict[str, list[str]],
    rng: random.Random,
) -> list[SurfEvent]:
    events: list[SurfEvent] = []
    # Pages that do not exist yet cannot be surfed.
    pool = [
        u for u in by_topic.get(topic, ())
        if corpus.pages[u].born_at <= start
    ]
    if not pool:
        return events
    url = rng.choice(pool)
    referrer: str | None = None
    t = start
    length = rng.randint(*profile.session_length)
    for _ in range(length):
        truth = {"topic": topic, "page_topic": corpus.topic_of(url)}
        events.append(VisitEvent(profile.user_id, t, url, referrer, session_id, truth))

        on_topic = corpus.topic_of(url) == topic
        p_bookmark = profile.bookmark_prob
        if corpus.pages[url].front_page:
            p_bookmark = min(1.0, p_bookmark * profile.front_page_bookmark_bias)
        if on_topic and rng.random() < p_bookmark:
            folder = profile.folder_for_topic(topic)
            if folder is not None:
                events.append(BookmarkEvent(
                    profile.user_id, t + 1.0, url, folder,
                    {"topic": topic, "functional": False},
                ))
        elif not on_topic and rng.random() < profile.functional_bookmark_prob:
            # Functional bookmark: off-topic page filed into the session's
            # topical folder (e.g. a tool's front page kept with the topic).
            folder = profile.folder_for_topic(topic)
            if folder is not None:
                events.append(BookmarkEvent(
                    profile.user_id, t + 1.0, url, folder,
                    {"topic": topic, "functional": True},
                ))

        # Choose the next page: prefer an on-topic out-link, else maybe
        # follow any link, else jump back into the topic pool.
        succs = [
            s for s in graph.successors(url) if corpus.pages[s].born_at <= t
        ]
        on_topic_succs = [s for s in succs if corpus.topic_of(s) == topic]
        r = rng.random()
        referrer = url
        if on_topic_succs and r >= profile.jump_prob:
            url = rng.choice(on_topic_succs)
        elif succs and r >= profile.jump_prob * 0.5:
            url = rng.choice(succs)
        else:
            url = rng.choice(pool)
            referrer = None
        t += rng.uniform(10.0, 120.0)  # dwell time
    return events
