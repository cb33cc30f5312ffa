"""Dense document vectors and the exact-cosine index over them.

Dense vectors come from a *deterministic random projection* of the
sparse TF-IDF vectors in :mod:`repro.text.vectorize` — LSA's cheap
cousin (Johnson–Lindenstrauss): each vocabulary term gets a fixed
Rademacher basis row (±1/√d, derived from a SHA-1 of the term string, so
every process agrees without coordination, however its vocabulary
numbered the term), and a document's dense vector is the weighted sum of
its terms' rows, L2-normalized.  No external models, no training pass —
the "offline training" is the corpus statistics already folded into the
TF-IDF weights.

Serving is an exact scan: a query scores every vector in scope (the
whole index, or the candidates a scoped search passes) with one C-level
``math.dist`` per document, so what it returns is the true top *k* at
every size (DESIGN.md §13 has the cost model).

The index persists vectors in the term store (one ``embed`` record per
document; the ``dense`` records of a data dir written while the basis
was seeded by term id are read by nothing) and is maintained by
:class:`DenseIndexDaemon`, a versioning *consumer* ticked by the
scheduler under the usual quarantine/parole supervision.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import mul
from typing import TYPE_CHECKING

from ..storage.codec import decode, encode
from ..storage.engine import Namespace
from ..storage.kvstore import KVStore

if TYPE_CHECKING:  # pragma: no cover
    from ..server.daemons import PageVectorizer
    from ..storage.repository import MemexRepository
    from ..text.vocabulary import Vocabulary

#: Dense dimensionality — small enough that a cosine is ~100 flops.
DENSE_DIMS = 128
#: The term-store namespace the index persists its vectors under.
DENSE_NAMESPACE = "embed"


def _rademacher(seed: str, dims: int) -> list[float]:
    """±1/√dims entries derived from SHA-1 bits of *seed* (stable
    across processes — Python's own ``hash()`` is salted per run)."""
    scale = 1.0 / math.sqrt(dims)
    out: list[float] = []
    counter = 0
    bits: int = 0
    have = 0
    while len(out) < dims:
        if have == 0:
            digest = hashlib.sha1(f"{seed}#{counter}".encode()).digest()
            bits = int.from_bytes(digest, "big")
            have = len(digest) * 8
            counter += 1
        out.append(scale if bits & 1 else -scale)
        bits >>= 1
        have -= 1
    return out


class DenseProjector:
    """Project sparse term-id vectors into a fixed dense space.

    A term's basis row is seeded by its string, which *vocab* names at
    each call: two vocabularies that number a term differently project
    a page to the same vector.

    >>> from repro.text.vocabulary import Vocabulary
    >>> one, two = Vocabulary(), Vocabulary()
    >>> _ = one.add_document(["memex", "trail", "trail"])
    >>> _ = two.add_document(["archive"])
    >>> _ = two.add_document(["trail", "memex", "trail"])
    >>> one.id("memex"), two.id("memex")
    (0, 2)
    >>> page = {one.id("memex"): 1.0, one.id("trail"): 2.0}
    >>> same = {two.id("memex"): 1.0, two.id("trail"): 2.0}
    >>> projector = DenseProjector(dims=8)
    >>> projector.project(page, one) == projector.project(same, two)
    True
    """

    def __init__(self, dims: int = DENSE_DIMS) -> None:
        self.dims = dims
        self._basis: dict[str, list[float]] = {}

    def _basis_for(self, term: str) -> list[float]:
        row = self._basis.get(term)
        if row is None:
            row = _rademacher(f"term:{term}", self.dims)
            self._basis[term] = row
        return row

    def project(
        self, sparse: dict[int, float], vocab: "Vocabulary | None" = None,
    ) -> list[float]:
        """Dense, L2-normalized image of a sparse vector (zero stays
        zero).  *vocab* names its term ids; without one an id names
        itself (``str(id)``), as in the synthetic vectors of the tests
        and the dense leg ``bench/ladder.py`` times."""
        term = str if vocab is None else vocab.term
        terms = [
            (w, self._basis_for(term(t))) for t, w in sparse.items() if w != 0.0
        ]
        if not terms:
            return [0.0] * self.dims
        weights, rows = zip(*terms)
        # One C-level sum per dimension, adding in term order — the order
        # the stored vectors were (and stay) rounded in.
        vec = [sum(map(mul, weights, column)) for column in zip(*rows)]
        norm = math.sqrt(_dot(vec, vec))
        if norm > 0.0:
            vec = [x / norm for x in vec]
        return vec


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(map(mul, a, b))


def _sqnorm(vec: Sequence[float]) -> float:
    """‖vec‖² as ``math.dist`` would square it: ``hypot`` and ``dist``
    share one norm routine, so ``dist(q, d)² == _sqnorm(d)`` exactly when
    *q* is zero — a zero vector on either side scores exactly 0.0."""
    norm = math.hypot(*vec)
    return norm * norm


class DenseVectorIndex:
    """Exact-cosine index over dense vectors, persisted through a store.

    Thread-safe: the daemon adds while servlets query.  The internal
    lock takes the ``index`` rank of ``repro.locks.LOCK_ORDER`` — it
    nests over the kvstore it persists through, never the reverse.

    Parameters
    ----------
    kv:
        Backing term store; a private in-memory one is opened when
        omitted.
    """

    def __init__(
        self,
        kv: KVStore | None = None,
        *,
        dims: int = DENSE_DIMS,
    ) -> None:
        self.projector = DenseProjector(dims)
        self.dims = dims
        self._ns = Namespace(
            kv if kv is not None else KVStore(), DENSE_NAMESPACE)
        self._vectors: dict[str, tuple[float, ...]] = {}
        self._sqnorms: dict[str, float] = {}   # ‖vector‖², for query()
        self._dense_lock = threading.RLock()
        with self._dense_lock:
            for key, raw in self._ns.items():
                self._place(
                    key.decode("utf-8"), [float(x) for x in decode(raw)["v"]])

    def _place(self, url: str, vec: Sequence[float]) -> None:
        if len(vec) != self.dims:
            raise ValueError(
                f"dense vector for {url!r} has {len(vec)} dimensions, "
                f"the index has {self.dims}")
        self._vectors[url] = tuple(vec)
        self._sqnorms[url] = _sqnorm(vec)

    # -- maintenance ----------------------------------------------------------

    def add_many(
        self,
        docs: Iterable[tuple[str, dict[int, float]]],
        vocab: "Vocabulary | None" = None,
    ) -> None:
        """Project and index ``(url, sparse vector)`` pairs, their term
        ids named by *vocab* as in :meth:`DenseProjector.project`,
        persisting them with one group-committed store write."""
        # Projected and encoded before the lock is taken: queries go on.
        projected = [
            (url, self.projector.project(sparse, vocab)) for url, sparse in docs
        ]
        records = [
            (url.encode("utf-8"), encode({"v": vec})) for url, vec in projected
        ]
        with self._dense_lock:
            for url, vec in projected:
                self._place(url, vec)
            if records:
                self._ns.put_many(records)

    # -- queries --------------------------------------------------------------

    def query(
        self,
        vec: Sequence[float],
        *,
        k: int = 10,
        candidates: set[str] | None = None,
    ) -> list[tuple[str, float]]:
        """Top-*k* ``(url, cosine)`` among the stored (or *candidates*')
        vectors: one ``math.dist`` per document, and the dot product back
        from ``q·d = (‖q‖² + ‖d‖² − ‖q − d‖²) / 2`` — true of any pair, so
        a zero vector and the un-normalized query hybrid search sends
        score as they did."""
        q = tuple(vec)
        qq = _sqnorm(q)
        with self._dense_lock:
            urls = list(self._vectors.keys() if candidates is None
                        else self._vectors.keys() & candidates)
            dists = map(
                math.dist, repeat(q), map(self._vectors.__getitem__, urls))
            scored = [
                (url, (qq + dd - dist * dist) / 2.0)
                for url, dd, dist in zip(
                    urls, map(self._sqnorms.__getitem__, urls), dists)
            ]
        scored.sort(key=lambda t: (-t[1], t[0]))
        return scored[:k]

    def neighbors(self, url: str, *, k: int = 10) -> list[tuple[str, float]]:
        """Nearest indexed documents to an already-indexed one."""
        vec = self.vector(url)
        if vec is None:
            return []
        return [(u, s) for u, s in self.query(vec, k=k + 1) if u != url][:k]

    def vector(self, url: str) -> tuple[float, ...] | None:
        """The stored unit vector for an indexed document (None if absent)."""
        with self._dense_lock:
            return self._vectors.get(url)


class DenseIndexDaemon:
    """Consumer: keeps the dense index in step with published pages.

    Mirrors ``IndexerDaemon``: registers as a versioning consumer at
    construction (so read-path caches built later can watch its
    watermark), polls the published prefix each tick, projects every
    fetched page's TF-IDF vector, and acks.
    """

    name = "dense"

    def __init__(
        self,
        repo: "MemexRepository",
        vectorizer: "PageVectorizer",
        index: DenseVectorIndex,
    ) -> None:
        self.repo = repo
        self.vectorizer = vectorizer
        self.index = index
        repo.versions.register_consumer(self.name)
        self.projected_count = 0

    def run_once(self) -> int:
        watermark, urls = self.repo.versions.poll(self.name)
        docs = [
            (url, sparse) for url in urls
            if (sparse := self.vectorizer.tfidf_vector(url))
        ]
        self.index.add_many(docs, self.vectorizer.vocab)
        done = len(docs)
        self.repo.versions.ack(self.name, watermark)
        self.projected_count += done
        return done
