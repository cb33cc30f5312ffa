"""Bottom-up hierarchical agglomerative clustering.

"For clustering we started with a bottom-up hierarchical agglomerative
approach [6]" (§4).  Group-average linkage over cosine similarity of
TF-IDF vectors, returning a full dendrogram that callers can cut at k
clusters or at a similarity threshold.  Single and complete linkage are
included for the linkage ablation bench.

The group-average implementation maintains per-cluster *sum* vectors of the
unit-normalized members, exploiting the identity that the average pairwise
cosine between clusters A and B equals ``S_A . S_B / (|A| |B|)`` — so each
candidate merge costs one sparse dot product, and a lazy-deletion heap
gives O(n^2 log n) overall.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import cached_property

from ..errors import EmptyCorpus
from ..text.vectorize import SparseVector, add, cosine, normalize


@dataclass
class Dendrogram:
    """Result of a full agglomeration.

    ``merges`` is the sequence of (left, right, new, similarity) cluster
    ids; leaves are ids ``0..n-1`` in input order.  The tree they spell
    (:attr:`root`, :attr:`children`, :attr:`similarity`, :meth:`members`)
    is built on first use, once the agglomeration is complete.
    """

    n_leaves: int
    merges: list[tuple[int, int, int, float]] = field(default_factory=list)

    @property
    def root(self) -> int:
        return self.merges[-1][2] if self.merges else 0

    @cached_property
    def children(self) -> dict[int, tuple[int, int]]:
        """Merge node -> its (left, right) children."""
        return {new: (left, right) for left, right, new, _ in self.merges}

    @cached_property
    def similarity(self) -> dict[int, float]:
        """Merge node -> the similarity its two children merged at."""
        return {new: sim for _, _, new, sim in self.merges}

    @cached_property
    def _spans(self) -> tuple[list[int], dict[int, tuple[int, int]]]:
        """The leaves left to right, and each node's ``[start, end)`` slice
        of them: a subtree's leaves are contiguous."""
        sizes = dict.fromkeys(range(self.n_leaves), 1)
        for left, right, new, _ in self.merges:
            sizes[new] = sizes[left] + sizes[right]
        spans = {self.root: (0, sizes[self.root])}
        for left, right, new, _ in reversed(self.merges):
            start, end = spans[new]
            spans[left] = (start, start + sizes[left])
            spans[right] = (start + sizes[left], end)
        order = sorted(range(self.n_leaves), key=lambda leaf: spans[leaf][0])
        return order, spans

    def members(self, node: int) -> list[int]:
        """The leaves under *node*, left subtree first."""
        order, spans = self._spans
        start, end = spans[node]
        return order[start:end]

    def cut(self, k: int) -> list[list[int]]:
        """Cut into *k* clusters; returns lists of leaf indices."""
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, self.n_leaves)
        members: dict[int, list[int]] = {i: [i] for i in range(self.n_leaves)}
        stop = self.n_leaves - k  # number of merges to apply
        for left, right, new, _ in self.merges[:stop]:
            members[new] = members.pop(left) + members.pop(right)
        return sorted(members.values(), key=lambda m: m[0])


def hac(
    vectors: list[SparseVector],
    *,
    linkage: str = "group-average",
) -> Dendrogram:
    """Agglomerate *vectors* all the way to one cluster."""
    if linkage not in ("group-average", "single", "complete"):
        raise ValueError(f"unknown linkage {linkage!r}")
    n = len(vectors)
    if n == 0:
        raise EmptyCorpus("cannot cluster zero documents")
    dendro = Dendrogram(n_leaves=n)
    if n == 1:
        return dendro
    if linkage == "group-average":
        _hac_group_average(vectors, dendro)
    else:
        _hac_pairwise(vectors, dendro, linkage)
    return dendro


def _hac_group_average(vectors: list[SparseVector], dendro: Dendrogram) -> None:
    n = len(vectors)
    units = [normalize(v) for v in vectors]
    sums: dict[int, SparseVector] = {i: dict(units[i]) for i in range(n)}
    sizes: dict[int, int] = {i: 1 for i in range(n)}
    alive: set[int] = set(range(n))
    next_id = itertools.count(n)

    def avg_sim(a: int, b: int) -> float:
        na, nb = sizes[a], sizes[b]
        cross = 0.0
        sa, sb = sums[a], sums[b]
        if len(sa) > len(sb):
            sa, sb = sb, sa
        for t, w in sa.items():
            if t in sb:
                cross += w * sb[t]
        return cross / (na * nb)

    heap: list[tuple[float, int, int]] = []
    ids = sorted(alive)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            heapq.heappush(heap, (-avg_sim(a, b), a, b))

    while len(alive) > 1:
        while True:
            negsim, a, b = heapq.heappop(heap)
            if a in alive and b in alive:
                break
        new = next(next_id)
        alive.discard(a)
        alive.discard(b)
        sums[new] = add(sums[a], sums[b])
        sizes[new] = sizes[a] + sizes[b]
        dendro.merges.append((a, b, new, -negsim))
        for other in alive:
            heapq.heappush(heap, (-avg_sim(new, other), other, new))
        alive.add(new)
        del sums[a], sums[b]


def _hac_pairwise(
    vectors: list[SparseVector], dendro: Dendrogram, linkage: str
) -> None:
    n = len(vectors)
    units = [normalize(v) for v in vectors]
    sim: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            sim[(i, j)] = cosine(units[i], units[j])

    def get(a: int, b: int) -> float:
        return sim[(a, b) if a < b else (b, a)]

    alive: set[int] = set(range(n))
    next_id = itertools.count(n)
    combine = max if linkage == "single" else min

    while len(alive) > 1:
        best: tuple[float, int, int] | None = None
        for a in alive:
            for b in alive:
                if a < b:
                    s = get(a, b)
                    if best is None or s > best[0]:
                        best = (s, a, b)
        assert best is not None
        s, a, b = best
        new = next(next_id)
        alive.discard(a)
        alive.discard(b)
        for other in alive:
            sim[(other, new) if other < new else (new, other)] = combine(
                get(a, other), get(b, other)
            )
        dendro.merges.append((a, b, new, s))
        alive.add(new)


def cluster_vectors(
    vectors: list[SparseVector],
    k: int,
    *,
    linkage: str = "group-average",
) -> list[list[int]]:
    """Convenience: agglomerate and cut into *k* clusters of leaf indices."""
    return hac(vectors, linkage=linkage).cut(k)
