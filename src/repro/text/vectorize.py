"""Sparse document vectors: term counts, TF-IDF, cosine similarity.

All mining code shares this one representation: a document is a dict
``{term_id: weight}``.  Sparse dicts beat numpy arrays here because Web
vocabularies are huge and bookmark pages are short — exactly the regime
the paper's Berkeley-DB "term-level statistics" store targets.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .tokenize import tokenize
from .vocabulary import Vocabulary

SparseVector = dict[int, float]


def count_vector(vocab: Vocabulary, terms: Iterable[str]) -> SparseVector:
    """Raw term-count vector, interning unseen terms."""
    counts: SparseVector = {}
    for term in terms:
        tid = vocab.add(term)
        counts[tid] = counts.get(tid, 0.0) + 1.0
    return counts


def text_vector(vocab: Vocabulary, text: str) -> SparseVector:
    """Tokenize *text* and return its count vector."""
    return count_vector(vocab, tokenize(text))


def query_vector(vocab: Vocabulary, text: str) -> SparseVector:
    """The count vector of a query over the terms some counted document
    contains.  The vocabulary is only read: a client's new words are
    neither kept nor weighted, so no query grows the vocabulary or the
    dense basis."""
    counts: SparseVector = {}
    for term in tokenize(text):
        tid = vocab.id(term)
        if tid is not None and vocab.doc_freq(tid):
            counts[tid] = counts.get(tid, 0.0) + 1.0
    return counts


def tfidf(vocab: Vocabulary, counts: SparseVector) -> SparseVector:
    """Log-TF x smoothed-IDF weighting."""
    return {
        tid: (1.0 + math.log(tf)) * vocab.idf(tid)
        for tid, tf in counts.items()
        if tf > 0
    }


def normalize(vec: SparseVector) -> SparseVector:
    """Unit-length copy of *vec* (empty vectors come back empty)."""
    scale = max((abs(w) for w in vec.values()), default=0.0)
    if scale == 0.0:
        return {}
    # Pre-divide by the max magnitude so the norm of the scaled vector is
    # computed in a well-conditioned range: weights below ~1e-154 square
    # into subnormals (or underflow to 0.0) and the naive sum-of-squares
    # loses all precision.
    scaled = {tid: w / scale for tid, w in vec.items()}
    n = math.sqrt(sum(w * w for w in scaled.values()))
    return {tid: w / n for tid, w in scaled.items()}


def dot(a: SparseVector, b: SparseVector) -> float:
    if len(a) > len(b):
        a, b = b, a
    return sum(w * b[tid] for tid, w in a.items() if tid in b)


def cosine(a: SparseVector, b: SparseVector) -> float:
    """Cosine similarity in [0, 1] for non-negative vectors."""
    ua, ub = normalize(a), normalize(b)
    if not ua or not ub:
        return 0.0
    # Dot of unit vectors: ``dot(a, b) / (norm(a) * norm(b))`` would
    # underflow the denominator to 0.0 when both vectors are tiny.
    return min(dot(ua, ub), 1.0)


def add(a: SparseVector, b: SparseVector, *, scale: float = 1.0) -> SparseVector:
    """Return ``a + scale * b`` as a new vector."""
    out = dict(a)
    for tid, w in b.items():
        out[tid] = out.get(tid, 0.0) + scale * w
    return out


def centroid(vectors: list[SparseVector]) -> SparseVector:
    """Arithmetic mean of sparse vectors (empty list -> empty vector)."""
    if not vectors:
        return {}
    total: SparseVector = {}
    for vec in vectors:
        for tid, w in vec.items():
            total[tid] = total.get(tid, 0.0) + w
    k = float(len(vectors))
    return {tid: w / k for tid, w in total.items()}


def top_terms(vocab: Vocabulary, vec: SparseVector, k: int = 10) -> list[str]:
    """The k highest-weighted terms of *vec*, as strings (for labels);
    equal weights in term order, so the label does not depend on how a
    vocabulary numbered its terms."""
    best = sorted(
        (-w, vocab.term(tid)) for tid, w in vec.items()
    )[:k]
    return [term for _, term in best]


def distinctive_label(vocab: Vocabulary, center: SparseVector, k: int) -> str:
    """The *k* highest-weighted terms of *center*, space-joined, leaving
    out terms in more than a quarter of the documents (web chrome like
    "home", "links"): a label names the topic, not the medium.  When every
    term is that common, all of them compete."""
    cutoff = max(2, int(0.25 * vocab.num_docs))
    distinctive = {
        t: w for t, w in center.items() if vocab.doc_freq(t) <= cutoff
    } or center
    return " ".join(top_terms(vocab, distinctive, k=k))
