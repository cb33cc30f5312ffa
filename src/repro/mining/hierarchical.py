"""Hierarchical classification over the folder tree (reference [3]).

The paper's Bayesian classifier descends a *topic taxonomy* — Chakrabarti,
Dom, Agrawal & Raghavan's TAPER organizes "large text databases into
hierarchical topic taxonomies", and Memex's folder trees are exactly such
taxonomies.  This module classifies the way TAPER does:

* one multinomial NB discriminates among the **children of each internal
  node**, trained on all documents pooled under each child's subtree
  (pooling is the shrinkage that makes sparse deep classes trainable);
* prediction **descends greedily** from the root, multiplying child
  posteriors;
* with an ``ambiguity_threshold``, descent **stops early** at an internal
  node when no child is convincing — so a page about music-in-general
  lands in ``Music`` rather than being forced into ``Music/Jazz``.  The
  folder tab then shows the '?' one level up, which is precisely the
  right UI behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NotFitted
from ..text.vectorize import SparseVector
from .naive_bayes import NaiveBayesClassifier


@dataclass
class _TaxNode:
    name: str                                  # full path ("Music/Jazz")
    children: dict[str, "_TaxNode"] = field(default_factory=dict)
    doc_ids: list[int] = field(default_factory=list)  # docs labeled here
    classifier: NaiveBayesClassifier | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def subtree_docs(self) -> list[int]:
        out = list(self.doc_ids)
        for child in self.children.values():
            out.extend(child.subtree_docs())
        return out


@dataclass(frozen=True)
class HierarchicalPrediction:
    """Where the descent stopped and how it got there."""

    path: str                       # full path of the final node
    confidence: float               # product of child posteriors
    stopped_early: bool             # True -> an internal node (ambiguous)
    steps: tuple[tuple[str, float], ...]  # (child path, posterior) per level


class HierarchicalClassifier:
    """Taxonomy-descent classifier over slash-separated label paths."""

    def __init__(self, *, ambiguity_threshold: float = 0.0) -> None:
        """
        Parameters
        ----------
        ambiguity_threshold:
            Stop descending when the best child's posterior falls below
            this (0.0 = always descend to a leaf).
        """
        self.ambiguity_threshold = ambiguity_threshold
        self._root: _TaxNode | None = None
        self._docs: list[SparseVector] = []

    # -- training --------------------------------------------------------------

    def fit(
        self,
        docs: list[SparseVector],
        labels: list[str],
    ) -> "HierarchicalClassifier":
        """Train from documents labeled with paths like ``Music/Jazz``."""
        if not docs:
            raise NotFitted("cannot fit on zero documents")
        if len(docs) != len(labels):
            raise ValueError("docs and labels must align")
        self._docs = list(docs)
        root = _TaxNode(name="")
        for i, label in enumerate(labels):
            node = root
            path_parts = [p for p in label.split("/") if p]
            if not path_parts:
                raise ValueError("empty label path")
            built = []
            for part in path_parts:
                built.append(part)
                full = "/".join(built)
                if part not in node.children:
                    node.children[part] = _TaxNode(name=full)
                node = node.children[part]
            node.doc_ids.append(i)

        # Train a child-discriminator at every internal node.
        for node in self._walk(root):
            if node.is_leaf:
                continue
            train_docs: list[SparseVector] = []
            train_labels: list[str] = []
            for child in node.children.values():
                for doc_id in child.subtree_docs():
                    train_docs.append(self._docs[doc_id])
                    train_labels.append(child.name)
            # Documents labeled exactly at this internal node train
            # nothing here; they simply stop at this node.
            node.classifier = NaiveBayesClassifier().fit(
                train_docs, train_labels)
        self._root = root
        return self

    @staticmethod
    def _walk(node: _TaxNode):
        yield node
        for child in node.children.values():
            yield from HierarchicalClassifier._walk(child)

    # -- inference --------------------------------------------------------------------

    def predict(self, doc: SparseVector) -> HierarchicalPrediction:
        if self._root is None:
            raise NotFitted("classifier has not been fitted")
        node = self._root
        confidence = 1.0
        steps: list[tuple[str, float]] = []
        stopped_early = False
        while not node.is_leaf:
            assert node.classifier is not None
            best_child, posterior = node.classifier.predict(doc)
            if (
                self.ambiguity_threshold > 0.0
                and posterior < self.ambiguity_threshold
                and node is not self._root
            ):
                stopped_early = True
                break
            steps.append((best_child, posterior))
            confidence *= posterior
            child_name = best_child.rsplit("/", 1)[-1]
            node = node.children[child_name]
        else:
            stopped_early = False
        return HierarchicalPrediction(
            path=node.name,
            confidence=confidence,
            stopped_early=stopped_early and not node.is_leaf,
            steps=tuple(steps),
        )

    def predict_path(self, doc: SparseVector) -> tuple[str, float]:
        """Convenience: ``(path, confidence)``."""
        prediction = self.predict(doc)
        return prediction.path, prediction.confidence

    def classes(self) -> list[str]:
        """All leaf paths."""
        if self._root is None:
            raise NotFitted("classifier has not been fitted")
        return sorted(
            node.name for node in self._walk(self._root)
            if node.is_leaf and node.name
        )

    def level_accuracy(
        self,
        docs: list[SparseVector],
        labels: list[str],
        *,
        level: int,
    ) -> float:
        """Accuracy of the first *level* path components — the per-level
        metric of reference [3] (coarse mistakes cost more than deep ones).
        """
        if not docs:
            return 0.0
        correct = 0
        for doc, label in zip(docs, labels):
            want = "/".join(label.split("/")[:level])
            got = "/".join(self.predict(doc).path.split("/")[:level])
            correct += got == want
        return correct / len(docs)
