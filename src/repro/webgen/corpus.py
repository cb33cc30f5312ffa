"""Synthetic Web corpus: pages with ground-truth topics.

Pages come in two shapes, following §4's observation about bookmarked
URLs: ordinary **content pages** (a few hundred tokens) and **front
pages** — "less text and more graphics" — which get one short navigational
blurb.  Front-page probability and text lengths are the corpus's difficulty
knobs; E1 sweeps them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .language import TopicLanguageModel
from .topictree import TopicNode


@dataclass
class Page:
    """One synthetic Web page with its ground truth."""

    url: str
    topic: str                 # ground-truth leaf topic name
    title: str
    text: str
    front_page: bool
    born_at: float = 0.0       # when the page appeared on the Web
    out_links: list[str] = field(default_factory=list)


@dataclass
class WebCorpus:
    """The generated Web: pages plus the taxonomy they were drawn from."""

    root: TopicNode
    pages: dict[str, Page]
    language: TopicLanguageModel

    def by_topic(self, topic_name: str) -> list[Page]:
        return [p for p in self.pages.values() if p.topic == topic_name]

    def urls(self) -> list[str]:
        return list(self.pages)

    def topic_of(self, url: str) -> str:
        return self.pages[url].topic

    def __len__(self) -> int:
        return len(self.pages)


def _host_for(topic: TopicNode, index: int, rng: random.Random) -> str:
    """Fabricate a plausible host name for a page of this topic."""
    stem = topic.label.lower()
    kind = rng.choice(["www", "pages", "web", "members"])
    tld = rng.choice(["com", "org", "net", "edu"])
    return f"{kind}.{stem}{index}.{tld}"


def generate_corpus(
    root: TopicNode,
    rng: random.Random,
    *,
    pages_per_leaf: int = 30,
    front_page_fraction: float = 0.3,
    content_length: tuple[int, int] = (120, 400),
    front_length: tuple[int, int] = (8, 30),
    topical_mass: float = 0.55,
    front_topical_mass: float | None = None,
    ancestor_share: float = 0.35,
    late_fraction: float = 0.0,
    birth_window: float = 0.0,
) -> WebCorpus:
    """Generate a topic-labelled corpus over the leaves of *root*.

    Front pages draw far fewer tokens AND a much smaller topical share of
    them (mostly generic navigation chrome — "less text and more
    graphics"), reproducing the sparse-text challenge the paper highlights
    for bookmarks.  *front_topical_mass* defaults to a third of
    *topical_mass*.

    With ``late_fraction > 0``, that share of pages is *born late*:
    ``born_at`` is drawn uniformly over ``[0, birth_window]`` seconds and
    surfers never visit a page before its birth — the substrate for §1's
    "popular sites ... that have appeared in the last six months".
    """
    language = TopicLanguageModel(
        root, rng, topical_mass=topical_mass, ancestor_share=ancestor_share,
    )
    if front_topical_mass is None:
        front_topical_mass = topical_mass / 3.0
    pages: dict[str, Page] = {}
    for leaf in root.leaves():
        for i in range(pages_per_leaf):
            front = rng.random() < front_page_fraction
            lo, hi = front_length if front else content_length
            length = rng.randint(lo, hi)
            tokens = language.generate(
                leaf, rng, length,
                topical_mass=front_topical_mass if front else None,
            )
            host = _host_for(leaf, i, rng)
            path = rng.choice(["index", "main", "page", "doc", "article"])
            url = f"http://{host}/{path}{i}.html"
            title_tokens = language.generate(leaf, rng, rng.randint(2, 5))
            born_at = 0.0
            if late_fraction > 0.0 and rng.random() < late_fraction:
                born_at = rng.uniform(0.0, birth_window)
            page = Page(
                url=url,
                topic=leaf.name,
                title=" ".join(title_tokens).title(),
                text=" ".join(tokens),
                front_page=front,
                born_at=born_at,
            )
            pages[url] = page
    return WebCorpus(root=root, pages=pages, language=language)
