"""Inverted index stored in the lightweight key-value store.

One posting list per term, keyed by the term string, exactly the
"fine-grained term-level data" the paper pushes out of the RDBMS into
Berkeley DB (§3).  Postings are ``doc_id -> term frequency`` maps
serialized as compact JSON records; document lengths and
corpus statistics live in sibling namespaces so the ranked-retrieval code
never touches the relational side.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable

from ..errors import IndexError_
from ..storage.codec import decode, encode
from ..storage.engine import Namespace
from ..storage.kvstore import KVStore
from .tokenize import tokenize


class InvertedIndex:
    """Incrementally maintained inverted index with removals.

    Parameters
    ----------
    kv:
        Backing term store; a private in-memory one is opened when
        omitted.
    prefix:
        Namespace prefix, letting several indices share one store (Memex
        keeps "several text-related indices in Berkeley DB").
    store_positions:
        Also keep per-document term positions (costs space; enables
        phrase queries like ``"register allocation"``).
    """

    def __init__(
        self,
        kv: KVStore | None = None,
        *,
        prefix: str = "idx",
        store_positions: bool = False,
    ) -> None:
        self._kv = kv if kv is not None else KVStore()
        self._post = Namespace(self._kv, prefix + ".post")
        self._docs = Namespace(self._kv, prefix + ".docs")   # doc_id -> doc length
        self._meta = Namespace(self._kv, prefix + ".meta")
        self._pos = Namespace(self._kv, prefix + ".pos")
        self._norm = Namespace(self._kv, prefix + ".norm")   # doc_id -> sum (1+ln tf)^2
        self.store_positions = store_positions
        # Index lock ("index" rank in ``repro.locks.LOCK_ORDER``, above
        # the kvstore it writes through).  A document add/remove spans
        # many posting lists plus the doc-length entry; without one lock
        # over the whole update a concurrent scorer can see a doc_id in a
        # posting list before its length record exists.  Reentrant so
        # :class:`~repro.text.search.SearchEngine` can pin a consistent
        # view across a whole scoring pass (``with index.lock``) while
        # the methods it calls re-enter.
        self._index_lock = threading.RLock()
        # (document count, sum of document lengths), guarded by the index
        # lock: read from the store on first use (an earlier process may
        # have written it), then adjusted per add/remove, so BM25's N and
        # avgdl do not walk every length record on every query.  None
        # while unknown, which includes "a write to the store failed".
        self._totals: tuple[int, int] | None = None

    @property
    def lock(self) -> threading.RLock:
        """Hold this to make several reads one consistent snapshot."""
        return self._index_lock

    # -- documents ------------------------------------------------------------

    def add_document(self, doc_id: str, text: str) -> int:
        """Index *text* under *doc_id*; returns the token count.

        Re-adding an existing doc_id replaces its previous content.
        """
        with self._index_lock:
            return self._add_document_locked(doc_id, text)

    def _add_document_locked(self, doc_id: str, text: str) -> int:
        if self.has_document(doc_id):
            self.remove_document(doc_id)
        terms = tokenize(text)
        counts: dict[str, int] = {}
        positions: dict[str, list[int]] = {}
        for i, term in enumerate(terms):
            counts[term] = counts.get(term, 0) + 1
            if self.store_positions:
                positions.setdefault(term, []).append(i)
        for term, tf in counts.items():
            postings = self._load_postings(term)
            postings[doc_id] = tf
            self._store_postings(term, postings)
        if self.store_positions:
            for term, pos in positions.items():
                table = self._load_positions(term)
                table[doc_id] = pos
                self._store_positions(term, table)
        count, total = self._totals_locked()
        self._totals = None
        self._docs.put(doc_id.encode("utf-8"), encode(len(terms)))
        self._totals = (count + 1, total + len(terms))
        norm_sq = sum((1.0 + math.log(tf)) ** 2 for tf in counts.values())
        self._norm.put(doc_id.encode("utf-8"), encode(norm_sq))
        return len(terms)

    def remove_document(self, doc_id: str) -> bool:
        """Remove a document from the index; returns whether it existed."""
        with self._index_lock:
            return self._remove_document_locked(doc_id)

    def _remove_document_locked(self, doc_id: str) -> bool:
        raw = self._docs.get(doc_id.encode("utf-8"))
        if raw is None:
            return False
        # Walk every posting list; laptop-scale corpora make this fine and
        # it avoids a per-document forward index.
        for key, value in list(self._post.items()):
            postings = decode(value)
            if doc_id in postings:
                del postings[doc_id]
                term = key.decode("utf-8")
                self._store_postings(term, postings)
        for key, value in list(self._pos.items()):
            table = decode(value)
            if doc_id in table:
                del table[doc_id]
                self._store_positions(key.decode("utf-8"), table)
        count, total = self._totals_locked()
        self._totals = None
        self._docs.delete(doc_id.encode("utf-8"))
        self._totals = (count - 1, total - int(decode(raw)))
        self._norm.discard(doc_id.encode("utf-8"))
        return True

    def has_document(self, doc_id: str) -> bool:
        with self._index_lock:
            return doc_id.encode("utf-8") in self._docs

    def doc_length(self, doc_id: str) -> int:
        with self._index_lock:
            return self._doc_length_locked(doc_id)

    def _doc_length_locked(self, doc_id: str) -> int:
        raw = self._docs.get(doc_id.encode("utf-8"))
        if raw is None:
            raise IndexError_(f"document {doc_id!r} not indexed")
        return int(decode(raw))

    def doc_norm(self, doc_id: str) -> float:
        """Euclidean norm of the document's log-tf weight vector.

        Maintained at indexing time so cosine ranking can normalize by
        the *true* vector norm.  Stores written before norms existed
        fall back to the old ``sqrt(doc length)`` proxy rather than
        failing the scoring pass.
        """
        with self._index_lock:
            raw = self._norm.get(doc_id.encode("utf-8"))
            if raw is None:
                return math.sqrt(max(self._doc_length_locked(doc_id), 1))
            return math.sqrt(float(decode(raw)))

    @property
    def num_docs(self) -> int:
        with self._index_lock:
            return self._totals_locked()[0]

    def avg_doc_length(self) -> float:
        with self._index_lock:
            count, total = self._totals_locked()
        return total / count if count else 0.0

    def _totals_locked(self) -> tuple[int, int]:
        if self._totals is None:
            lengths = [int(decode(v)) for _, v in self._docs.items()]
            self._totals = (len(lengths), sum(lengths))
        return self._totals

    def document_ids(self) -> list[str]:
        with self._index_lock:
            return [k.decode("utf-8") for k, _ in self._docs.items()]

    # -- terms ------------------------------------------------------------------

    def postings(self, term: str) -> dict[str, int]:
        """``{doc_id: term frequency}`` for one (already-stemmed) term."""
        with self._index_lock:
            return self._load_postings(term)

    def doc_freq(self, term: str) -> int:
        with self._index_lock:
            return len(self._load_postings(term))

    def vocabulary_size(self) -> int:
        with self._index_lock:
            return sum(1 for _ in self._post.items())

    def terms(self) -> Iterable[str]:
        with self._index_lock:
            keys = [key for key, _ in self._post.items()]
        for key in keys:
            yield key.decode("utf-8")

    # -- internals ------------------------------------------------------------------

    def _load_postings(self, term: str) -> dict[str, int]:
        raw = self._post.get(term.encode("utf-8"))
        if raw is None:
            return {}
        return decode(raw)

    def _store_postings(self, term: str, postings: dict[str, int]) -> None:
        key = term.encode("utf-8")
        if postings:
            self._post.put(key, encode(postings))
        else:
            self._post.discard(key)

    # -- positions (phrase queries) ---------------------------------------------

    def positions(self, term: str) -> dict[str, list[int]]:
        """``{doc_id: [token positions]}`` (empty unless store_positions)."""
        with self._index_lock:
            return self._load_positions(term)

    def phrase_match(self, terms: list[str]) -> dict[str, int]:
        """Documents containing *terms* consecutively; value = match count.

        Requires ``store_positions=True`` (raises otherwise).
        """
        if not self.store_positions:
            raise IndexError_("phrase queries need store_positions=True")
        if not terms:
            return {}
        with self._index_lock:
            tables = [self._load_positions(t) for t in terms]
        candidates = set(tables[0])
        for table in tables[1:]:
            candidates &= set(table)
        out: dict[str, int] = {}
        for doc_id in candidates:
            starts = set(tables[0][doc_id])
            for offset, table in enumerate(tables[1:], start=1):
                starts &= {p - offset for p in table[doc_id]}
                if not starts:
                    break
            if starts:
                out[doc_id] = len(starts)
        return out

    def _load_positions(self, term: str) -> dict[str, list[int]]:
        raw = self._pos.get(term.encode("utf-8"))
        if raw is None:
            return {}
        return decode(raw)

    def _store_positions(self, term: str, table: dict[str, list[int]]) -> None:
        key = term.encode("utf-8")
        if table:
            self._pos.put(key, encode(table))
        else:
            self._pos.discard(key)
