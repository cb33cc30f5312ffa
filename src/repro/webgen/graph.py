"""Hyperlink graph over the synthetic corpus.

Links follow two empirical regularities of the late-90s Web that the
paper's algorithms exploit:

* **topic locality** — most links stay within the same (or a sibling)
  topic; the enhanced classifier's hyperlink features work only because
  of this, and the trail tab's "Web neighborhood" is meaningful because
  of it;
* **preferential attachment** — in-link counts are heavy-tailed, so
  "popular pages" (the resource-discovery daemon's target) exist.

Front pages act as hubs: they receive extra out-links (they are
navigation pages), which is what lets link features rescue their sparse
text in E1.
"""

from __future__ import annotations

import random
from collections import defaultdict

from ..mining.linkanalysis import LinkGraph
from .corpus import WebCorpus


def generate_links(
    corpus: WebCorpus,
    rng: random.Random,
    *,
    mean_out_degree: int = 7,
    locality: float = 0.75,
    sibling_share: float = 0.6,
    hub_bonus: int = 6,
    preferential: float = 0.7,
) -> LinkGraph:
    """Wire the corpus into a directed hyperlink graph (also recorded on
    each page's ``out_links``).

    Parameters
    ----------
    locality:
        Probability a link's target shares the source's leaf topic or a
        sibling leaf under the same parent.
    sibling_share:
        Within local links, probability of staying on the *same* leaf
        (vs. a sibling leaf).
    hub_bonus:
        Extra out-links granted to front pages.
    preferential:
        Probability a non-local target is chosen preferentially by current
        in-degree rather than uniformly.
    """
    urls = corpus.urls()
    by_leaf: dict[str, list[str]] = defaultdict(list)
    for page in corpus.pages.values():
        by_leaf[page.topic].append(page.url)
    siblings: dict[str, list[str]] = {}
    for leaf in corpus.root.leaves():
        parent = leaf.parent
        group = [l.name for l in (parent.children if parent else [leaf]) if l.is_leaf]
        siblings[leaf.name] = [name for name in group if name != leaf.name]

    graph = LinkGraph()
    for url in urls:
        graph.add_node(url)
    # A growing pool where each URL appears once per in-link (plus once
    # baseline) gives O(1) preferential sampling.
    pref_pool: list[str] = list(urls)

    for page in corpus.pages.values():
        fanout = max(1, rng.randint(mean_out_degree - 3, mean_out_degree + 3))
        if page.front_page:
            fanout += hub_bonus
        targets: set[str] = set()
        attempts = 0
        while len(targets) < fanout and attempts < fanout * 8:
            attempts += 1
            r = rng.random()
            if r < locality:
                if rng.random() < sibling_share or not siblings[page.topic]:
                    pool = by_leaf[page.topic]
                else:
                    pool = by_leaf[rng.choice(siblings[page.topic])]
                candidate = rng.choice(pool)
            elif rng.random() < preferential and pref_pool:
                candidate = rng.choice(pref_pool)
            else:
                candidate = rng.choice(urls)
            if candidate != page.url:
                targets.add(candidate)
        for dst in sorted(targets):
            graph.add_edge(page.url, dst)
            pref_pool.append(dst)
        page.out_links = sorted(targets)

    return graph


def link_topic_locality(corpus: WebCorpus, graph: LinkGraph) -> float:
    """Fraction of edges whose endpoints share a leaf topic (diagnostic)."""
    edges = graph.number_of_edges()
    if edges == 0:
        return 0.0
    same = sum(
        1 for src, dst in graph.edges()
        if corpus.topic_of(src) == corpus.topic_of(dst)
    )
    return same / edges
