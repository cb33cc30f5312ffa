"""The enhanced classifier: text + hyperlink + folder-placement evidence.

§4: "For classification we use a new technique that combines features from
text, hyperlink and folder placement to offer significantly boosted
accuracy, increasing from a mere 40% accuracy for text-only learners to
about 80% with our more elaborate model."

Three evidence channels, each producing a log-distribution over the user's
folder classes, combined log-linearly:

**Text** — the naive-Bayes posterior of :mod:`.naive_bayes`.

**Hyperlink** — pages link to same-topic pages far more often than chance
(topic locality), so the labels of a page's graph neighborhood are
evidence: labeled in/out-neighbors vote directly, co-cited pages (sharing
an in-link source) vote at half strength.  Unlabeled neighbors participate
through *relaxation labeling*: a first pass classifies every test page,
later passes let neighbors' current soft labels reinforce each other
(Chakrabarti-Dom-Indyk style).

**Folder placement** — if this URL was co-placed with other URLs in
*anyone's* folder (the community's collective filing), the known classes of
its co-placed companions are evidence.  This is the channel that rescues
"functional" bookmarks whose text is unrelated to the folder topic.

**Co-visitation** (optional fourth channel) — pages surfed in the same
session as this URL vote with their labels, weighted by the decayed
co-occurrence count from the ``covisits`` matrix
(:mod:`repro.retrieval.covisit`).  Surfers surf topic-locally, so trail
adjacency is label evidence even when text and links are silent.  A URL
with no co-visitation evidence contributes nothing — the channel is
numerically absent, not a uniform vote — so fits without trail data
reproduce the three-channel model exactly.

Channel weights and on/off switches are exposed for the E1 ablation.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable

from ..errors import NotFitted
from ..text.vectorize import SparseVector
from .linkanalysis import LinkGraph
from .naive_bayes import NaiveBayesClassifier


def _log_normalize(scores: dict[str, float]) -> dict[str, float]:
    peak = max(scores.values())
    logz = peak + math.log(sum(math.exp(v - peak) for v in scores.values()))
    return {c: v - logz for c, v in scores.items()}


def _vote_distribution(
    votes: dict[str, float], classes: list[str], alpha: float = 0.5
) -> dict[str, float]:
    """Smoothed log-distribution from weighted class votes."""
    total = sum(votes.values())
    denom = total + alpha * len(classes)
    return {
        c: math.log((votes.get(c, 0.0) + alpha) / denom) for c in classes
    }


class EnhancedClassifier:
    """Combined text / hyperlink / folder-placement classifier.

    Parameters
    ----------
    use_text, use_links, use_folder:
        Channel switches (the E1 ablation grid).
    text_weight, link_weight, folder_weight:
        Log-linear mixing weights.
    relaxation_rounds:
        Extra rounds in :meth:`predict_batch` where unlabeled neighbors'
        current soft labels feed back as link evidence.
    """

    def __init__(
        self,
        *,
        use_text: bool = True,
        use_links: bool = True,
        use_folder: bool = True,
        use_covisit: bool = True,
        text_weight: float = 1.0,
        link_weight: float = 1.5,
        folder_weight: float = 2.0,
        cocitation_weight: float = 0.5,
        covisit_weight: float = 0.75,
        relaxation_rounds: int = 2,
        smoothing: float = 0.1,
        feature_budget: int | None = None,
    ) -> None:
        if not (use_text or use_links or use_folder):
            raise ValueError("at least one evidence channel must be enabled")
        self.use_text = use_text
        self.use_links = use_links
        self.use_folder = use_folder
        self.use_covisit = use_covisit
        self.text_weight = text_weight
        self.link_weight = link_weight
        self.folder_weight = folder_weight
        self.cocitation_weight = cocitation_weight
        self.covisit_weight = covisit_weight
        self.relaxation_rounds = relaxation_rounds
        self._nb = NaiveBayesClassifier(
            smoothing=smoothing, feature_budget=feature_budget,
        )
        self._labels: dict[str, str] = {}
        self._classes: list[str] = []
        self._graph: LinkGraph | None = None
        self._cociters: dict[str, set[str]] = {}
        self._coplacement: dict[str, set[str]] = {}
        self._covisitation: dict[str, list[tuple[str, float]]] = {}
        self._fitted = False

    # -- training --------------------------------------------------------------

    def fit(
        self,
        vectors: dict[str, SparseVector],
        labels: dict[str, str],
        graph: LinkGraph,
        coplacement: dict[str, set[str]] | None = None,
        covisitation: dict[str, list[tuple[str, float]]] | None = None,
    ) -> "EnhancedClassifier":
        """Train on labeled documents.

        ``vectors`` maps url -> term-count vector for the *labeled* docs;
        ``graph`` is the hyperlink graph (may contain many more urls);
        ``coplacement`` maps url -> set of urls filed in the same folder by
        any community member (built by
        :func:`build_coplacement` from folder contents);
        ``covisitation`` maps url -> ``[(co-visited url, decayed count),
        ...]`` from the co-visitation matrix (the trail channel; omit to
        train the classic three-channel model).
        """
        if not labels:
            raise NotFitted("no labeled documents")
        missing = set(labels) - set(vectors)
        if missing:
            raise ValueError(f"labels without vectors: {sorted(missing)[:3]}...")
        docs = [vectors[url] for url in labels]
        self._nb.fit(docs, [labels[url] for url in labels])
        self._labels = dict(labels)
        self._classes = self._nb.classes
        self._graph = graph
        self._coplacement = coplacement or {}
        self._covisitation = covisitation or {}
        self._cociters = _cocitation_map(graph, set(labels)) if self.use_links else {}
        self._fitted = True
        return self

    # -- evidence channels ---------------------------------------------------------

    def _text_evidence(self, vec: SparseVector) -> dict[str, float]:
        return self._nb.log_posteriors(vec)

    def _link_evidence(
        self,
        url: str,
        soft: dict[str, dict[str, float]] | None = None,
    ) -> dict[str, float]:
        assert self._graph is not None
        votes: dict[str, float] = defaultdict(float)
        if url in self._graph:
            # Graph order, not set order: the soft votes are float sums.
            neighbors = dict.fromkeys([*self._graph.successors(url),
                                       *self._graph.predecessors(url)])
            for nb in neighbors:
                label = self._labels.get(nb)
                if label is not None:
                    votes[label] += 1.0
                elif soft is not None and nb in soft:
                    for c, p in soft[nb].items():
                        votes[c] += p
        for cociter in self._cociters.get(url, ()):
            label = self._labels.get(cociter)
            if label is not None:
                votes[label] += self.cocitation_weight
        return _vote_distribution(votes, self._classes)

    def _folder_evidence(self, url: str) -> dict[str, float]:
        votes: dict[str, float] = defaultdict(float)
        for companion in self._coplacement.get(url, ()):
            label = self._labels.get(companion)
            if label is not None:
                votes[label] += 1.0
        return _vote_distribution(votes, self._classes)

    def _covisit_votes(self, url: str) -> dict[str, float]:
        """Labeled trail companions vote, log-damped so one heavily
        reinforced pair cannot drown the rest of the evidence."""
        votes: dict[str, float] = defaultdict(float)
        for companion, count in self._covisitation.get(url, ()):
            label = self._labels.get(companion)
            if label is not None and count > 0.0:
                votes[label] += math.log1p(count)
        return dict(votes)

    def _combine(
        self,
        url: str,
        vec: SparseVector,
        soft: dict[str, dict[str, float]] | None = None,
    ) -> dict[str, float]:
        combined = {c: 0.0 for c in self._classes}
        if self.use_text:
            text = self._text_evidence(vec)
            for c in combined:
                combined[c] += self.text_weight * text[c]
        if self.use_links:
            link = self._link_evidence(url, soft)
            for c in combined:
                combined[c] += self.link_weight * link[c]
        if self.use_folder:
            folder = self._folder_evidence(url)
            for c in combined:
                combined[c] += self.folder_weight * folder[c]
        if self.use_covisit and self._covisitation:
            votes = self._covisit_votes(url)
            # Only vote when there IS evidence: an empty channel must
            # leave the three-channel posterior bit-identical, not merely
            # proportionally equal after a uniform shift.
            if votes:
                covisit = _vote_distribution(votes, self._classes)
                for c in combined:
                    combined[c] += self.covisit_weight * covisit[c]
        return _log_normalize(combined)

    # -- inference -------------------------------------------------------------------

    def log_posteriors(self, url: str, vec: SparseVector) -> dict[str, float]:
        if not self._fitted:
            raise NotFitted("classifier has not been fitted")
        return self._combine(url, vec)

    def predict(self, url: str, vec: SparseVector) -> tuple[str, float]:
        post = self.log_posteriors(url, vec)
        best = max(post, key=lambda c: (post[c], c))
        return best, math.exp(post[best])

    def predict_batch(
        self,
        vectors: dict[str, SparseVector],
    ) -> dict[str, tuple[str, float]]:
        """Classify a batch jointly with relaxation labeling.

        Round 0 scores each page independently; subsequent rounds feed the
        batch's current soft labels back through the link channel so
        unlabeled neighborhoods reinforce each other.
        """
        if not self._fitted:
            raise NotFitted("classifier has not been fitted")
        soft: dict[str, dict[str, float]] = {}
        for url, vec in vectors.items():
            post = self._combine(url, vec)
            soft[url] = {c: math.exp(v) for c, v in post.items()}
        if self.use_links:
            for _ in range(self.relaxation_rounds):
                updated: dict[str, dict[str, float]] = {}
                for url, vec in vectors.items():
                    others = {u: p for u, p in soft.items() if u != url}
                    post = self._combine(url, vec, others)
                    updated[url] = {c: math.exp(v) for c, v in post.items()}
                soft = updated
        out: dict[str, tuple[str, float]] = {}
        for url, dist in soft.items():
            best = max(dist, key=lambda c: (dist[c], c))
            out[url] = (best, dist[best])
        return out

    @property
    def classes(self) -> list[str]:
        if not self._fitted:
            raise NotFitted("classifier has not been fitted")
        return list(self._classes)


def _cocitation_map(
    graph: LinkGraph, labeled: set[str]
) -> dict[str, set[str]]:
    """url -> labeled urls sharing at least one in-link source with it."""
    out: dict[str, set[str]] = defaultdict(set)
    for hub in graph.nodes():
        cited = list(graph.successors(hub))
        if len(cited) < 2:
            continue
        cited_labeled = [u for u in cited if u in labeled]
        if not cited_labeled:
            continue
        for u in cited:
            for v in cited_labeled:
                if u != v:
                    out[u].add(v)
    return dict(out)


def build_coplacement(folders: Iterable[Iterable[str]]) -> dict[str, set[str]]:
    """Build the co-placement map from folder contents.

    *folders* iterates over collections of URLs, one per (user, folder)
    pair across the whole community.  Two URLs appearing in the same
    collection become companions.
    """
    out: dict[str, set[str]] = defaultdict(set)
    for members in folders:
        members = list(dict.fromkeys(members))
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                out[u].add(v)
                out[v].add(u)
    return dict(out)
