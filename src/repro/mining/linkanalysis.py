"""Hyperlink analysis: HITS hubs/authorities on a trail's neighborhood.

The motivating query "are there any popular sites ... ?" (§1) needs a
notion of link-endorsed popularity.  HITS (Kleinberg 1998) on a focused
subgraph is how Chakrabarti et al.'s earlier systems scored topical
authority; ``popular_near`` runs it on a trail tab's neighborhood of
the crawl graph, a :class:`LinkGraph`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, KeysView


class LinkGraph:
    """Directed links as successor and predecessor dicts.  Nodes keep their
    first-insertion order and each node's neighbours their edge-insertion
    order: HITS sums and the surfer draws in those orders."""

    def __init__(self) -> None:
        self._succ: dict[str, dict[str, None]] = {}
        self._pred: dict[str, dict[str, None]] = {}

    def add_node(self, node: str) -> None:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, src: str, dst: str) -> None:
        """Add ``src -> dst`` and both nodes; a repeated edge is a no-op."""
        self.add_node(src)
        self.add_node(dst)
        self._succ[src][dst] = self._pred[dst][src] = None

    def __contains__(self, node: object) -> bool:
        return node in self._succ

    def nodes(self) -> KeysView[str]:
        return self._succ.keys()

    def successors(self, node: str) -> KeysView[str]:
        return self._succ[node].keys()

    def predecessors(self, node: str) -> KeysView[str]:
        return self._pred[node].keys()

    def edges(self) -> Iterator[tuple[str, str]]:
        return ((src, dst) for src, dsts in self._succ.items() for dst in dsts)

    def number_of_edges(self) -> int:
        return sum(map(len, self._succ.values()))


#: HITS' power iteration stops after this many rounds ...
HITS_MAX_ITERATIONS = 50
#: ... or once a round moves the scores by less than this in total.
HITS_TOLERANCE = 1e-8


def hits(graph: LinkGraph) -> tuple[dict[str, float], dict[str, float]]:
    """Hub and authority scores, L2-normalized, via power iteration.

    Returns ``(hubs, authorities)``.  Isolated nodes get score 0.  An
    empty graph returns two empty dicts.
    """
    nodes = list(graph.nodes())
    if not nodes:
        return {}, {}
    hubs = {n: 1.0 for n in nodes}
    auths = {n: 1.0 for n in nodes}
    for _ in range(HITS_MAX_ITERATIONS):
        new_auths = {
            n: sum(hubs[p] for p in graph.predecessors(n)) for n in nodes
        }
        _l2_normalize(new_auths)
        new_hubs = {
            n: sum(new_auths[s] for s in graph.successors(n)) for n in nodes
        }
        _l2_normalize(new_hubs)
        delta = sum(abs(new_auths[n] - auths[n]) for n in nodes) + sum(
            abs(new_hubs[n] - hubs[n]) for n in nodes
        )
        hubs, auths = new_hubs, new_auths
        if delta < HITS_TOLERANCE:
            break
    return hubs, auths


def _l2_normalize(scores: dict[str, float]) -> None:
    norm = math.sqrt(sum(v * v for v in scores.values()))
    if norm > 0:
        for k in scores:
            scores[k] /= norm


def popular_near(
    graph: LinkGraph,
    seed_urls: set[str],
    *,
    k: int = 10,
    hops: int = 1,
) -> list[tuple[str, float]]:
    """'Popular pages in or near' a seed set (§1's community-trail query).

    Builds the *hops*-neighborhood of the seeds (both link directions),
    runs HITS on it, and returns the top-k by authority.
    """
    present = {u for u in seed_urls if u in graph}
    if not present:
        return []
    frontier = set(present)
    neighborhood = set(present)
    for _ in range(hops):
        nxt: set[str] = set()
        for url in frontier:
            nxt.update(graph.successors(url))
            nxt.update(graph.predecessors(url))
        nxt -= neighborhood
        neighborhood |= nxt
        frontier = nxt
    # Sorted, not in the set's hash order: HITS sums floats in node order.
    sub = LinkGraph()
    for url in sorted(neighborhood):
        sub.add_node(url)
    for url in sub.nodes():
        for dst in graph.successors(url):
            if dst in neighborhood:
                sub.add_edge(url, dst)
    _, auths = hits(sub)
    ranked = sorted(auths.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]
