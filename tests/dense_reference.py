"""The interpreted dense kernels the C-level ones replaced, kept as the
differential oracle.

These are the bodies ``_dot``, ``DenseProjector.project``,
``DenseVectorIndex._signature`` and ``DenseVectorIndex.query`` (with its
``_probe``) had when a projection was ``dims`` interpreted multiply-adds
per term and a query one interpreted dot product per pooled document.
``_reference_query`` also keeps the order the old code worked in — probe
first, drop what is outside ``candidates`` afterwards — so the scoped-leg
test can show what that lost.  Not a test module: the oracle tests import
it.
"""

import math

from repro.retrieval.dense import EXACT_SCAN_THRESHOLD
from repro.storage.codec import encode


def _reference_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _reference_project(projector, sparse):
    vec = [0.0] * projector.dims
    for term_id, weight in sparse.items():
        if weight == 0.0:
            continue
        row = projector._basis_for(term_id)
        for j in range(projector.dims):
            vec[j] += weight * row[j]
    norm = math.sqrt(sum(x * x for x in vec))
    if norm > 0.0:
        vec = [x / norm for x in vec]
    return vec


def _reference_signature(index, vec):
    sig = 0
    for i, plane in enumerate(index._planes):
        if _reference_dot(vec, plane) >= 0.0:
            sig |= 1 << i
    return sig


def _reference_probe(index, vec, k):
    if len(index._vectors) <= max(EXACT_SCAN_THRESHOLD, 4 * k):
        return set(index._vectors)
    sig = _reference_signature(index, vec)
    pool = set(index._buckets.get(sig, ()))
    for bit in range(len(index._planes)):
        pool |= index._buckets.get(sig ^ (1 << bit), set())
    if len(pool) < k:  # sparse buckets: recall beats probe savings
        return set(index._vectors)
    return pool


def _reference_query(index, vec, *, k=10, candidates=None):
    pool = _reference_probe(index, vec, k)
    scored = [
        (url, _reference_dot(vec, index._vectors[url]))
        for url in pool
        if candidates is None or url in candidates
    ]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def _reference_exact_scan(index, vec, *, k=10, candidates=None):
    """Every stored vector scored, no buckets: what any probe approximates."""
    scored = [
        (url, _reference_dot(vec, stored))
        for url, stored in index._vectors.items()
        if candidates is None or url in candidates
    ]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def _reference_add_many(index, docs):
    """Project with the old loop, place, and persist as the old index did."""
    projected = [
        (url, _reference_project(index.projector, sparse)) for url, sparse in docs
    ]
    for url, vec in projected:
        index._place(url, vec)
    if index._ns is not None:
        index._ns.put_many([
            (url.encode("utf-8"), encode({"v": vec})) for url, vec in projected
        ])
