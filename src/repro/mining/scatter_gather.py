"""Scatter/Gather browsing (Cutting, Karger, Pedersen — reference [6]).

Memex "uses unsupervised clustering to propose a topic hierarchy over a
set of links that the user may want to reorganize" (§2).  The constant
interaction-time trick from the paper's reference: cluster a random
O(sqrt(kn)) sample with (quadratic) HAC — *buckshot* — then sweep the rest
of the corpus into the nearest centroid and refine with a few k-means
iterations.  A :class:`ScatterGatherSession` supports the interactive
loop: scatter into k clusters, let the user gather a subset, re-scatter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..errors import EmptyCorpus
from ..text.vectorize import SparseVector, centroid, cosine, normalize
from .hac import cluster_vectors


#: k-means rounds after the sweep (fewer when the assignment settles).
REFINE_ITERATIONS = 3


@dataclass
class Cluster:
    """One proposed cluster over document indices."""

    members: list[int]
    center: SparseVector


def buckshot(
    vectors: list[SparseVector],
    k: int,
    rng: random.Random,
) -> list[Cluster]:
    """Buckshot clustering into *k* clusters.

    Seeds come from group-average HAC on a sample of size
    ``min(n, ceil(sqrt(k*n)) * 3)``; assignment and refinement are
    centroid-based (cosine).
    """
    n = len(vectors)
    if n == 0:
        raise EmptyCorpus("cannot cluster zero documents")
    k = min(k, n)
    units = [normalize(v) for v in vectors]
    sample_size = min(n, max(k, 3 * math.ceil(math.sqrt(k * n))))
    sample = rng.sample(range(n), sample_size)
    seed_groups = cluster_vectors([units[i] for i in sample], k)
    centers = [centroid([units[sample[i]] for i in group]) for group in seed_groups]

    assignment = _assign_all(units, centers)
    for _ in range(REFINE_ITERATIONS):
        centers = [
            centroid([units[i] for i in members]) if members else centers[ci]
            for ci, members in enumerate(assignment)
        ]
        new_assignment = _assign_all(units, centers)
        if new_assignment == assignment:
            break
        assignment = new_assignment

    return [
        Cluster(members=members, center=centers[ci])
        for ci, members in enumerate(assignment)
    ]


def _assign_all(
    units: list[SparseVector], centers: list[SparseVector]
) -> list[list[int]]:
    assignment: list[list[int]] = [[] for _ in centers]
    for i, vec in enumerate(units):
        best_c = 0
        best_s = -1.0
        for ci, center in enumerate(centers):
            s = cosine(vec, center)
            if s > best_s:
                best_s = s
                best_c = ci
        assignment[best_c].append(i)
    return assignment


class ScatterGatherSession:
    """Interactive scatter/gather over a fixed document collection.

    The user repeatedly *scatters* the working set into k clusters, then
    *gathers* the interesting clusters into a new working set — drilling
    into a corpus without queries.  Memex offers this over a folder's
    unorganized links.
    """

    def __init__(
        self,
        vectors: list[SparseVector],
        *,
        seed: int = 0,
    ) -> None:
        if not vectors:
            raise EmptyCorpus("cannot browse zero documents")
        self._vectors = vectors
        self._rng = random.Random(seed)
        self._working: list[int] = list(range(len(vectors)))
        self._clusters: list[Cluster] = []

    @property
    def working_set(self) -> list[int]:
        return list(self._working)

    @property
    def clusters(self) -> list[Cluster]:
        return list(self._clusters)

    def scatter(self, k: int) -> list[Cluster]:
        """Cluster the current working set into (up to) k clusters."""
        subset = [self._vectors[i] for i in self._working]
        local = buckshot(subset, k, self._rng)
        self._clusters = [
            Cluster(
                members=[self._working[j] for j in c.members],
                center=c.center,
            )
            for c in local
            if c.members
        ]
        return self.clusters

    def gather(self, cluster_indices: list[int]) -> list[int]:
        """Focus on the union of the chosen clusters; returns new working set."""
        if not self._clusters:
            raise EmptyCorpus("scatter before gathering")
        chosen: list[int] = []
        for ci in cluster_indices:
            chosen.extend(self._clusters[ci].members)
        if not chosen:
            raise EmptyCorpus("gathered an empty selection")
        self._working = sorted(set(chosen))
        self._clusters = []
        return self.working_set
