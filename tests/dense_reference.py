"""The interpreted dense kernels the C-level ones replaced, kept as the
differential oracle.

These are the bodies ``_dot``, ``DenseProjector.project`` and
``DenseVectorIndex.query`` had when a projection was ``dims`` interpreted
multiply-adds per term and a query one interpreted dot product per stored
document.  Not a test module: the oracle tests import it.
"""

import math

from repro.storage.codec import encode


def _reference_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _reference_project(projector, sparse, vocab=None):
    term = str if vocab is None else vocab.term
    vec = [0.0] * projector.dims
    for term_id, weight in sparse.items():
        if weight == 0.0:
            continue
        row = projector._basis_for(term(term_id))
        for j in range(projector.dims):
            vec[j] += weight * row[j]
    norm = math.sqrt(sum(x * x for x in vec))
    if norm > 0.0:
        vec = [x / norm for x in vec]
    return vec


def _reference_exact_scan(index, vec, *, k=10, candidates=None):
    """Every stored vector in scope scored by an interpreted dot product."""
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
    index._ns.put_many([
        (url.encode("utf-8"), encode({"v": vec})) for url, vec in projected
    ])
