"""Hyperlink analysis: HITS hubs/authorities on a trail's neighborhood.

The motivating query "are there any popular sites ... ?" (§1) needs a
notion of link-endorsed popularity.  HITS (Kleinberg 1998) on a focused
subgraph is how Chakrabarti et al.'s earlier systems scored topical
authority; ``popular_near`` runs it on a trail tab's neighborhood of
the crawl graph, a plain ``networkx`` digraph.
"""

from __future__ import annotations

import math

import networkx as nx


def hits(
    graph: nx.DiGraph,
    *,
    max_iterations: int = 50,
    tolerance: float = 1e-8,
) -> tuple[dict[str, float], dict[str, float]]:
    """Hub and authority scores, L2-normalized, via power iteration.

    Returns ``(hubs, authorities)``.  Isolated nodes get score 0.  An
    empty graph returns two empty dicts.
    """
    nodes = list(graph.nodes())
    if not nodes:
        return {}, {}
    hubs = {n: 1.0 for n in nodes}
    auths = {n: 1.0 for n in nodes}
    for _ in range(max_iterations):
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
        if delta < tolerance:
            break
    return hubs, auths


def _l2_normalize(scores: dict[str, float]) -> None:
    norm = math.sqrt(sum(v * v for v in scores.values()))
    if norm > 0:
        for k in scores:
            scores[k] /= norm


def popular_near(
    graph: nx.DiGraph,
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
    sub = graph.subgraph(neighborhood)
    _, auths = hits(nx.DiGraph(sub))
    ranked = sorted(auths.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]
