"""Evaluation utilities: accuracy, F1, cross-validation, cluster quality.

Shared by the tests and by every benchmark in ``benchmarks/`` so that
EXPERIMENTS.md numbers all come from one implementation.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence


# ---------------------------------------------------------------------------
# Classification metrics
# ---------------------------------------------------------------------------

def accuracy(y_true: Sequence[str], y_pred: Sequence[str]) -> float:
    if len(y_true) != len(y_pred):
        raise ValueError("length mismatch")
    if not y_true:
        return 0.0
    return sum(1 for t, p in zip(y_true, y_pred) if t == p) / len(y_true)


# ---------------------------------------------------------------------------
# Clustering metrics
# ---------------------------------------------------------------------------

def purity(clusters: list[list[int]], labels: Sequence[str]) -> float:
    """Fraction of points in their cluster's majority class."""
    total = sum(len(c) for c in clusters)
    if total == 0:
        return 0.0
    correct = 0
    for members in clusters:
        counts = Counter(labels[i] for i in members)
        if counts:
            correct += counts.most_common(1)[0][1]
    return correct / total


def normalized_mutual_information(
    clusters: list[list[int]], labels: Sequence[str]
) -> float:
    """NMI between the clustering and the ground-truth labelling."""
    n = sum(len(c) for c in clusters)
    if n == 0:
        return 0.0
    class_counts = Counter(labels[i] for members in clusters for i in members)
    mi = 0.0
    for members in clusters:
        if not members:
            continue
        joint = Counter(labels[i] for i in members)
        for label, count in joint.items():
            p_joint = count / n
            p_cluster = len(members) / n
            p_class = class_counts[label] / n
            mi += p_joint * math.log(p_joint / (p_cluster * p_class))
    h_cluster = -sum(
        (len(m) / n) * math.log(len(m) / n) for m in clusters if m
    )
    h_class = -sum(
        (c / n) * math.log(c / n) for c in class_counts.values()
    )
    if h_cluster == 0.0 or h_class == 0.0:
        return 1.0 if h_cluster == h_class else 0.0
    return mi / math.sqrt(h_cluster * h_class)


# ---------------------------------------------------------------------------
# Ranking metrics (resource discovery, search, recommendation)
# ---------------------------------------------------------------------------

def precision_at_k(ranked: Sequence[str], relevant: set[str], k: int) -> float:
    if k <= 0:
        raise ValueError("k must be positive")
    top = list(ranked)[:k]
    if not top:
        return 0.0
    return sum(1 for item in top if item in relevant) / len(top)
