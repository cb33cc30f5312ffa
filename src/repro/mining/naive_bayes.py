"""Multinomial naive Bayes text classifier.

"For classification we started with a Bayesian classifier [3]" (§4).
This is the text-only learner whose ~40 % accuracy on bookmark corpora
motivates the enhanced classifier; it is also the text component *inside*
that enhanced model, so its posteriors must be well-calibrated enough to
mix with link and folder evidence (we return log-posteriors, not argmax).
"""

from __future__ import annotations

import math
from collections import defaultdict

from ..errors import NotFitted
from ..text.vectorize import SparseVector
from .features import project, select_features


class NaiveBayesClassifier:
    """Multinomial NB with Laplace smoothing and optional Fisher feature
    selection.

    Documents are sparse term-count vectors; labels are folder paths.
    """

    def __init__(
        self,
        *,
        smoothing: float = 0.1,
        feature_budget: int | None = None,
    ) -> None:
        self.smoothing = smoothing
        self.feature_budget = feature_budget
        self._classes: list[str] = []
        self._prior: dict[str, float] = {}
        self._term_logprob: dict[str, dict[int, float]] = {}
        self._default_logprob: dict[str, float] = {}
        self._features: set[int] | None = None
        self._fitted = False

    # -- training --------------------------------------------------------------

    def fit(
        self,
        docs: list[SparseVector],
        labels: list[str],
    ) -> "NaiveBayesClassifier":
        if not docs:
            raise NotFitted("cannot fit naive Bayes on zero documents")
        if len(docs) != len(labels):
            raise ValueError("docs and labels must align")
        if self.feature_budget is not None:
            self._features = select_features(docs, labels, budget=self.feature_budget)
            docs = [project(d, self._features) for d in docs]

        by_class: dict[str, list[SparseVector]] = defaultdict(list)
        for vec, label in zip(docs, labels):
            by_class[label].append(vec)
        self._classes = sorted(by_class)

        vocab: set[int] = set()
        for vec in docs:
            vocab.update(vec)
        vocab_size = max(len(vocab), 1)

        n_total = len(docs)
        self._prior = {
            c: math.log(len(members) / n_total) for c, members in by_class.items()
        }
        self._term_logprob = {}
        self._default_logprob = {}
        for c, members in by_class.items():
            counts: dict[int, float] = defaultdict(float)
            total = 0.0
            for vec in members:
                for term, tf in vec.items():
                    counts[term] += tf
                    total += tf
            denom = total + self.smoothing * vocab_size
            self._term_logprob[c] = {
                term: math.log((tf + self.smoothing) / denom)
                for term, tf in counts.items()
            }
            self._default_logprob[c] = math.log(self.smoothing / denom)
        self._fitted = True
        return self

    # -- inference ------------------------------------------------------------------

    def log_posteriors(self, doc: SparseVector) -> dict[str, float]:
        """Normalized log P(class | doc) for every class."""
        if not self._fitted:
            raise NotFitted("classifier has not been fitted")
        if self._features is not None:
            doc = project(doc, self._features)
        joint: dict[str, float] = {}
        for c in self._classes:
            score = self._prior[c]
            table = self._term_logprob[c]
            default = self._default_logprob[c]
            for term, tf in doc.items():
                score += tf * table.get(term, default)
            joint[c] = score
        # Log-normalize for calibrated mixing with other evidence.
        peak = max(joint.values())
        logz = peak + math.log(sum(math.exp(v - peak) for v in joint.values()))
        return {c: v - logz for c, v in joint.items()}

    def predict(self, doc: SparseVector) -> tuple[str, float]:
        """``(best class, posterior probability)``."""
        post = self.log_posteriors(doc)
        best = max(post, key=lambda c: (post[c], c))
        return best, math.exp(post[best])

    @property
    def classes(self) -> list[str]:
        if not self._fitted:
            raise NotFitted("classifier has not been fitted")
        return list(self._classes)

    # -- persistence --------------------------------------------------------------------

    def to_dict(self) -> dict:
        if not self._fitted:
            raise NotFitted("classifier has not been fitted")
        return {
            "smoothing": self.smoothing,
            "feature_budget": self.feature_budget,
            "classes": self._classes,
            "prior": self._prior,
            "term_logprob": {
                c: {str(t): p for t, p in table.items()}
                for c, table in self._term_logprob.items()
            },
            "default_logprob": self._default_logprob,
            "features": sorted(self._features) if self._features is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NaiveBayesClassifier":
        clf = cls(
            smoothing=payload["smoothing"],
            feature_budget=payload["feature_budget"],
        )
        clf._classes = list(payload["classes"])
        clf._prior = dict(payload["prior"])
        clf._term_logprob = {
            c: {int(t): p for t, p in table.items()}
            for c, table in payload["term_logprob"].items()
        }
        clf._default_logprob = dict(payload["default_logprob"])
        features = payload["features"]
        clf._features = set(features) if features is not None else None
        clf._fitted = True
        return clf
