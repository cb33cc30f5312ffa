"""Term dictionary with document frequencies.

Maps string terms to dense integer ids (the representation every mining
algorithm downstream wants) and tracks document frequencies for TF-IDF and
feature selection.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ..errors import TextError


class Vocabulary:
    """Bidirectional term <-> id map with document-frequency counts."""

    def __init__(self) -> None:
        self._term_to_id: dict[str, int] = {}
        self._id_to_term: list[str] = []
        self._doc_freq: list[int] = []
        self._num_docs = 0

    # -- growth --------------------------------------------------------------

    def add(self, term: str) -> int:
        """Intern *term*, returning its id."""
        tid = self._term_to_id.get(term)
        if tid is not None:
            return tid
        tid = len(self._id_to_term)
        self._term_to_id[term] = tid
        self._id_to_term.append(term)
        self._doc_freq.append(0)
        return tid

    def add_document(self, terms: Iterable[str]) -> dict[int, int]:
        """Intern a document's terms; returns ``{term_id: term_count}`` and
        updates document frequencies (each distinct term counted once)."""
        counts: dict[int, int] = {}
        for term in terms:
            tid = self.add(term)
            counts[tid] = counts.get(tid, 0) + 1
        for tid in counts:
            self._doc_freq[tid] += 1
        self._num_docs += 1
        return counts

    # -- lookup ----------------------------------------------------------------

    def id(self, term: str) -> int | None:
        return self._term_to_id.get(term)

    def term(self, tid: int) -> str:
        return self._id_to_term[tid]

    @property
    def num_docs(self) -> int:
        return self._num_docs

    def doc_freq(self, tid: int) -> int:
        return self._doc_freq[tid]

    def idf(self, tid: int) -> float:
        """Smoothed inverse document frequency."""
        return math.log((1 + self._num_docs) / (1 + self._doc_freq[tid])) + 1.0

    # -- persistence --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "terms": self._id_to_term,
            "doc_freq": self._doc_freq,
            "num_docs": self._num_docs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocabulary":
        """The vocabulary *payload* saved; a ``frozen`` flag an older
        version saved is ignored (nothing ever set it)."""
        vocab = cls()
        vocab._id_to_term = list(payload["terms"])
        vocab._term_to_id = {t: i for i, t in enumerate(vocab._id_to_term)}
        vocab._doc_freq = list(payload["doc_freq"])
        vocab._num_docs = int(payload["num_docs"])
        if len(vocab._doc_freq) != len(vocab._id_to_term):
            raise TextError("corrupt vocabulary payload")  # pragma: no cover
        return vocab
