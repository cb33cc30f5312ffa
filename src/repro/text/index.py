"""Inverted index stored in the lightweight key-value store.

One posting list per term, keyed by the term string, exactly the
"fine-grained term-level data" the paper pushes out of the RDBMS into
Berkeley DB (§3).  Postings are ``doc_id -> term frequency`` maps
serialized as compact JSON records; document lengths live in a sibling
namespace so the BM25 ranker never touches the relational side.  Only
``idx.post`` and ``idx.docs`` are read and written; a data dir written
before the ranker was BM25-only may still hold ``idx.norm`` and
``idx.pos`` keys, which nothing reads.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping, Set

from ..storage.codec import decode, encode
from ..storage.engine import Namespace
from ..storage.kvstore import KVStore
from .tokenize import tokenize

#: One tokenised document: (length, term -> tf).
_Tabulated = tuple[int, dict[str, int]]


class InvertedIndex:
    """Incrementally maintained inverted index with removals.

    Parameters
    ----------
    kv:
        Backing term store; a private in-memory one is opened when
        omitted.
    """

    def __init__(self, kv: KVStore | None = None) -> None:
        self._kv = kv if kv is not None else KVStore()
        self._post = Namespace(self._kv, "idx.post")
        self._docs = Namespace(self._kv, "idx.docs")   # doc_id -> doc length
        # Index lock ("index" rank in ``repro.locks.LOCK_ORDER``, above
        # the kvstore it writes through).  A document add/remove spans
        # many posting lists plus the doc-length entry; without one lock
        # over the whole update a concurrent scorer can see a doc_id in a
        # posting list before its length record exists.  Reentrant so
        # :class:`~repro.text.search.SearchEngine` can pin a consistent
        # view across a whole scoring pass (``with index.lock``) while
        # the methods it calls re-enter.
        self._index_lock = threading.RLock()
        # (document count, sum of document lengths) and doc_id -> length,
        # guarded by the index lock: read from the store on first use (an
        # earlier process may have written it), then adjusted per
        # add/remove once the store write succeeded, so BM25's N, avgdl
        # and per-document lengths read no store record on a query.
        # None while unknown, which includes "a write to the store
        # failed"; ``idx.docs`` stays the durable record.
        self._totals: tuple[int, int] | None = None
        self._lengths: dict[str, int] | None = None

    @property
    def lock(self) -> threading.RLock:
        """Hold this to make several reads one consistent snapshot."""
        return self._index_lock

    # -- documents ------------------------------------------------------------

    def add_document(self, doc_id: str, text: str) -> int:
        """Index *text* under *doc_id*; returns the token count.

        Re-adding an existing doc_id replaces its previous content.
        """
        return self.add_documents([(doc_id, text)])[0]

    def add_documents(self, docs: Iterable[tuple[str, str]]) -> list[int]:
        """Index ``(doc_id, text)`` pairs as one group commit; returns
        each pair's token count, in order.

        The stored result is what :meth:`add_document` per pair, in
        order, would leave (re-adding replaces; of a doc_id given twice
        the last text wins), but every touched posting list is loaded,
        merged and encoded once for the batch and everything reaches the
        store in one ``put_many`` — one log write, one fsync.
        """
        # Tokenised before the lock is taken: scorers keep reading.
        lengths: list[int] = []
        tabulated: dict[str, _Tabulated] = {}
        for doc_id, text in docs:
            terms = tokenize(text)
            counts: dict[str, int] = {}
            for term in terms:
                counts[term] = counts.get(term, 0) + 1
            lengths.append(len(terms))
            # A repeated doc_id takes its last place in the batch, which
            # is where sequential re-adds would leave it in each list.
            tabulated.pop(doc_id, None)
            tabulated[doc_id] = (len(terms), counts)
        if tabulated:
            with self._index_lock:
                self._add_tabulated_locked(tabulated)
        return lengths

    def _add_tabulated_locked(self, tabulated: dict[str, _Tabulated]) -> None:
        replaced: dict[str, int] = {}          # doc_id -> length it had
        for doc_id in tabulated:
            raw = self._docs.get(doc_id.encode("utf-8"))
            if raw is not None:
                replaced[doc_id] = int(decode(raw))
        post = self._strip_locked(replaced.keys())
        for doc_id, (_, counts) in tabulated.items():
            for term, tf in counts.items():
                postings = post.get(term)
                if postings is None:
                    postings = post[term] = self._load_postings(term)
                postings[doc_id] = tf
        # Lengths are logged before the postings that name their
        # documents: a torn batch keeps an unbroken prefix, so no
        # surviving posting can name a document the scorer has no length
        # for (it would raise on every query touching the term).
        items: list[tuple[bytes, bytes]] = []
        added = 0
        for doc_id, (length, _) in tabulated.items():
            items.append((self._docs.wrap(doc_id.encode("utf-8")), encode(length)))
            added += length
        count, total = self._totals_locked()
        lengths = self._lengths
        self._totals = self._lengths = None
        self._write_tables_locked(items, post)
        for doc_id, (length, _) in tabulated.items():
            lengths[doc_id] = length
        self._lengths = lengths
        self._totals = (
            count + len(tabulated) - len(replaced),
            total + added - sum(replaced.values()),
        )

    def _strip_locked(self, doc_ids: Set[str]) -> dict[str, dict[str, int]]:
        """Every posting list naming one of *doc_ids*, decoded and with
        those entries deleted, by term.

        Walks every posting list; laptop-scale corpora make this fine and
        it avoids a per-document forward index.  One walk however many
        documents are being replaced.
        """
        post: dict[str, dict[str, int]] = {}
        if not doc_ids:
            return post
        for key, value in self._post.items():
            table = decode(value)
            named = doc_ids & table.keys()
            if named:
                for doc_id in named:
                    del table[doc_id]
                post[key.decode("utf-8")] = table
        return post

    def _write_tables_locked(
        self,
        items: list[tuple[bytes, bytes]],
        post: dict[str, dict[str, int]],
    ) -> None:
        """One ``put_many`` of *items* followed by the posting lists
        given; a list left empty loses its key."""
        emptied: list[bytes] = []
        for term, table in post.items():
            key = self._post.wrap(term.encode("utf-8"))
            if table:
                items.append((key, encode(table)))
            else:
                emptied.append(key)
        self._kv.put_many(items)
        for key in emptied:
            self._kv.discard(key)

    def doc_lengths(self) -> Mapping[str, int]:
        """``{doc_id: length}`` of every indexed document, held in
        memory.  Read it under :attr:`lock`: the mapping is the index's
        own, and the next add changes it."""
        with self._index_lock:
            self._totals_locked()
            return self._lengths

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
            lengths = {
                key.decode("utf-8"): int(decode(value))
                for key, value in self._docs.items()
            }
            self._lengths = lengths
            self._totals = (len(lengths), sum(lengths.values()))
        return self._totals

    def document_ids(self) -> list[str]:
        with self._index_lock:
            return [k.decode("utf-8") for k, _ in self._docs.items()]

    # -- terms ------------------------------------------------------------------

    def postings(self, term: str) -> dict[str, int]:
        """``{doc_id: term frequency}`` for one (already-stemmed) term."""
        with self._index_lock:
            return self._load_postings(term)

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
