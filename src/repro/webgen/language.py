"""Per-topic term distributions for synthetic page text.

Every topic gets a unigram language model that mixes:

* a shared **background** vocabulary with a Zipfian rank-frequency curve
  (function words, generic Web chrome), and
* a **topical** vocabulary built from the topic's seed terms plus derived
  forms, with mass shared up the taxonomy path so sibling topics are more
  confusable than unrelated ones — the property that makes hierarchical
  classification (and its failures on sparse text) realistic.

The mixture weight of topical mass and the document length are the two
knobs E1 turns to recreate the paper's "front pages with less text" regime.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate

from .topictree import TopicNode

# Suffixes used to expand seed words into related forms, so a topic's
# vocabulary is bigger than its seed list and stems overlap naturally.
_DERIVED_SUFFIXES = ("s", "ing", "ed", "er")

BACKGROUND_SIZE = 600


def _zipf_weights(n: int, s: float = 1.1) -> list[float]:
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def _draw(vocab: list[str], cum: list[float], rng: random.Random) -> str:
    """``rng.choices(vocab, weights)[0]`` given the weights' running sums
    *cum*: the same single ``random()`` and the same pick, but O(log V)
    instead of rebuilding the running sums on every draw."""
    return vocab[bisect(cum, rng.random() * cum[-1], 0, len(cum) - 1)]


class TopicLanguageModel:
    """Unigram models for every topic in a taxonomy."""

    def __init__(
        self,
        root: TopicNode,
        rng: random.Random,
        *,
        topical_mass: float = 0.55,
        ancestor_share: float = 0.35,
    ) -> None:
        """
        Parameters
        ----------
        topical_mass:
            Probability that a generated token is topical rather than
            background.
        ancestor_share:
            Fraction of the topical mass drawn from ancestor topics'
            vocabularies (makes siblings confusable).
        """
        self.root = root
        self.topical_mass = topical_mass
        self.ancestor_share = ancestor_share
        background: list[str] = []
        for i in range(BACKGROUND_SIZE):
            word = _COMMON_WEB_WORDS[i % len(_COMMON_WEB_WORDS)]
            generation = i // len(_COMMON_WEB_WORDS)
            background.append(word if generation == 0 else f"{word}{generation}")
        self._background = background
        self._bg_cum = list(accumulate(_zipf_weights(BACKGROUND_SIZE)))
        self._topic_vocab: dict[str, list[str]] = {}
        self._topic_cum: dict[str, list[float]] = {}
        for node in root.walk():
            vocab = self._expand(node, rng)
            self._topic_vocab[node.name] = vocab
            self._topic_cum[node.name] = list(accumulate(_zipf_weights(len(vocab), s=0.9)))

    @staticmethod
    def _expand(node: TopicNode, rng: random.Random) -> list[str]:
        vocab: list[str] = list(node.seed_terms)
        for seed in node.seed_terms:
            for suffix in _DERIVED_SUFFIXES:
                if rng.random() < 0.5:
                    vocab.append(seed + suffix)
        return list(dict.fromkeys(vocab))

    # -- generation ----------------------------------------------------------

    def generate(
        self,
        topic: TopicNode,
        rng: random.Random,
        length: int,
        *,
        topical_mass: float | None = None,
    ) -> list[str]:
        """Draw *length* tokens from the topic's mixture model.

        *topical_mass* overrides the model default (front pages use a much
        lower value).
        """
        mass = self.topical_mass if topical_mass is None else topical_mass
        path = topic.ancestors() or [topic]
        own = self._topic_vocab.get(topic.name) or ["misc"]
        own_cum = self._topic_cum.get(topic.name) or [1.0]
        tokens: list[str] = []
        for _ in range(length):
            r = rng.random()
            if r >= mass:
                tokens.append(_draw(self._background, self._bg_cum, rng))
            elif r < mass * self.ancestor_share and len(path) > 1:
                donor = rng.choice(path[:-1])
                vocab = self._topic_vocab.get(donor.name)
                if vocab:
                    tokens.append(_draw(vocab, self._topic_cum[donor.name], rng))
                else:
                    tokens.append(_draw(own, own_cum, rng))
            else:
                tokens.append(_draw(own, own_cum, rng))
        return tokens

_COMMON_WEB_WORDS = [
    "home", "click", "site", "links", "welcome", "contact", "update",
    "information", "free", "online", "service", "guide", "top", "list",
    "help", "index", "resources", "member", "join", "newsletter", "search",
    "today", "world", "best", "view", "download", "mail", "user", "visit",
]
