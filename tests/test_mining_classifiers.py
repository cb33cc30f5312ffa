"""Tests for feature selection, naive Bayes, and the enhanced classifier."""

import math
import random

import pytest

from repro.errors import NotFitted
from repro.mining.features import fisher_scores, project, select_features
from repro.mining.linkanalysis import LinkGraph
from repro.mining.linkfolder import (
    EnhancedClassifier,
    build_coplacement,
    _cocitation_map,
)
from repro.mining.naive_bayes import NaiveBayesClassifier

# A tiny, crisply separable corpus: term 0/1 mark class A, 2/3 class B,
# term 9 is uniform noise.
DOCS = [
    {0: 3.0, 1: 1.0, 9: 1.0},
    {0: 2.0, 1: 2.0},
    {1: 4.0, 9: 2.0},
    {2: 3.0, 3: 1.0, 9: 1.0},
    {2: 1.0, 3: 2.0},
    {3: 5.0, 9: 2.0},
]
LABELS = ["A", "A", "A", "B", "B", "B"]


# -- features ----------------------------------------------------------------

def test_fisher_scores_rank_discriminative_terms():
    scores = fisher_scores(DOCS, LABELS)
    assert scores[0] > scores[9]
    assert scores[2] > scores[9]
    assert scores[3] > scores[9]


def test_select_features_budget():
    chosen = select_features(DOCS, LABELS, budget=4)
    assert len(chosen) == 4
    assert 9 not in chosen


def test_project():
    assert project({0: 1.0, 9: 2.0}, {0}) == {0: 1.0}
    assert project({}, {0}) == {}


def test_fisher_mismatched_lengths():
    with pytest.raises(ValueError):
        fisher_scores(DOCS, LABELS[:-1])


# -- naive Bayes -------------------------------------------------------------------

def test_nb_learns_separable_classes():
    nb = NaiveBayesClassifier().fit(DOCS, LABELS)
    assert nb.predict({0: 2.0, 1: 1.0})[0] == "A"
    assert nb.predict({2: 2.0, 3: 1.0})[0] == "B"
    assert nb.classes == ["A", "B"]


def test_nb_posteriors_normalized():
    nb = NaiveBayesClassifier().fit(DOCS, LABELS)
    post = {c: math.exp(v) for c, v in nb.log_posteriors({0: 1.0}).items()}
    assert abs(sum(post.values()) - 1.0) < 1e-9
    assert post["A"] > post["B"]


def test_nb_prior_matters_for_empty_doc():
    docs = DOCS + [{0: 1.0}] * 6  # skew prior toward A
    labels = LABELS + ["A"] * 6
    nb = NaiveBayesClassifier().fit(docs, labels)
    assert nb.predict({})[0] == "A"


def test_nb_unseen_terms_use_default_smoothing():
    nb = NaiveBayesClassifier().fit(DOCS, LABELS)
    label, conf = nb.predict({777: 3.0})
    assert label in ("A", "B")
    assert 0.0 < conf <= 1.0


def test_nb_requires_fit():
    nb = NaiveBayesClassifier()
    with pytest.raises(NotFitted):
        nb.predict({0: 1.0})
    with pytest.raises(NotFitted):
        nb.classes
    with pytest.raises(NotFitted):
        NaiveBayesClassifier().fit([], [])


def test_nb_mismatched_inputs():
    with pytest.raises(ValueError):
        NaiveBayesClassifier().fit(DOCS, LABELS[:-1])


def test_nb_feature_budget():
    nb = NaiveBayesClassifier(feature_budget=4).fit(DOCS, LABELS)
    assert nb.predict({0: 2.0})[0] == "A"
    # Noise term 9 was excluded from the model's features.
    assert nb._features is not None and 9 not in nb._features


def test_nb_single_class():
    nb = NaiveBayesClassifier().fit(DOCS[:3], ["A"] * 3)
    label, conf = nb.predict({2: 5.0})
    assert label == "A"
    assert conf == pytest.approx(1.0)


# -- enhanced classifier ----------------------------------------------------------------

def _toy_world():
    """6 labeled + 2 unlabeled docs; links and co-placement both point the
    unlabeled docs at the right class even though their text is empty."""
    vectors = {f"d{i}": dict(doc) for i, doc in enumerate(DOCS)}
    labels = {f"d{i}": lab for i, lab in enumerate(LABELS)}
    vectors["xA"] = {9: 1.0}   # text is pure noise
    vectors["xB"] = {9: 1.0}
    graph = LinkGraph()
    for url in vectors:
        graph.add_node(url)
    graph.add_edge("xA", "d0")
    graph.add_edge("d1", "xA")
    graph.add_edge("xB", "d3")
    graph.add_edge("d4", "xB")
    cop = build_coplacement([["xA", "d0", "d2"], ["xB", "d3", "d5"]])
    return vectors, labels, graph, cop


def test_enhanced_uses_link_and_folder_evidence():
    vectors, labels, graph, cop = _toy_world()
    clf = EnhancedClassifier().fit(
        {u: vectors[u] for u in labels}, labels, graph, cop,
    )
    assert clf.predict("xA", vectors["xA"])[0] == "A"
    assert clf.predict("xB", vectors["xB"])[0] == "B"


def test_text_only_fails_on_noise_docs():
    vectors, labels, graph, cop = _toy_world()
    clf = EnhancedClassifier(use_links=False, use_folder=False).fit(
        {u: vectors[u] for u in labels}, labels, graph, cop,
    )
    post = clf.log_posteriors("xA", vectors["xA"])
    # Pure-noise text gives a near-uniform posterior: no real evidence.
    assert abs(post["A"] - post["B"]) < 0.7


def test_enhanced_channel_switch_validation():
    with pytest.raises(ValueError):
        EnhancedClassifier(use_text=False, use_links=False, use_folder=False)


def test_enhanced_requires_fit_and_labels():
    clf = EnhancedClassifier()
    with pytest.raises(NotFitted):
        clf.predict("u", {0: 1.0})
    with pytest.raises(NotFitted):
        clf.classes
    with pytest.raises(NotFitted):
        clf.fit({}, {}, LinkGraph())
    with pytest.raises(ValueError):
        clf.fit({}, {"u": "A"}, LinkGraph())


def test_enhanced_batch_relaxation_spreads_labels():
    # Chain: labeled A -> x1 -> x2; x2 has no labeled neighbor, only x1.
    vectors = {"a": {0: 3.0}, "b": {2: 3.0}, "x1": {9: 1.0}, "x2": {9: 1.0}}
    labels = {"a": "A", "b": "B"}
    graph = LinkGraph()
    graph.add_edge("a", "x1")
    graph.add_edge("x1", "x2")
    train = {"a": {0: 3.0, 1: 1.0}, "b": {2: 3.0, 3: 1.0}}
    clf = EnhancedClassifier(use_folder=False, relaxation_rounds=3).fit(
        train, labels, graph,
    )
    out = clf.predict_batch({"x1": vectors["x1"], "x2": vectors["x2"]})
    assert out["x1"][0] == "A"
    assert out["x2"][0] == "A"  # only reachable through relaxation


def test_enhanced_folder_only_channel():
    vectors, labels, graph, cop = _toy_world()
    clf = EnhancedClassifier(use_text=False, use_links=False).fit(
        {u: vectors[u] for u in labels}, labels, graph, cop,
    )
    assert clf.predict("xA", vectors["xA"])[0] == "A"


def test_build_coplacement_symmetry_and_dedup():
    cop = build_coplacement([["a", "b", "a"], ["b", "c"]])
    assert cop["a"] == {"b"}
    assert cop["b"] == {"a", "c"}
    assert cop["c"] == {"b"}


def test_cocitation_map():
    graph = LinkGraph()
    for dst in ("l1", "u1", "l2"):
        graph.add_edge("hub", dst)
    m = _cocitation_map(graph, labeled={"l1", "l2"})
    assert m["u1"] == {"l1", "l2"}
    assert m["l1"] == {"l2"}
    assert "hub" not in m


def test_enhanced_beats_text_only_on_synthetic_web():
    """The E1 shape in miniature: enhanced >> text-only on sparse docs."""
    rng = random.Random(0)
    classes = ["C0", "C1", "C2"]
    vectors, labels = {}, {}
    graph = LinkGraph()
    folders = {c: [] for c in classes}
    for i in range(90):
        c = classes[i % 3]
        url = f"p{i}"
        base = {3 * classes.index(c): 2.0, 3 * classes.index(c) + 1: 1.0}
        noise = {50 + rng.randrange(8): 1.0}
        # Half the docs are 'front pages': noise only.
        vectors[url] = noise if i % 2 == 0 else {**base, **noise}
        labels[url] = c
        folders[c].append(url)
    for i in range(90):  # topic-local links
        c = labels[f"p{i}"]
        same = [u for u in labels if labels[u] == c and u != f"p{i}"]
        for dst in rng.sample(same, 3):
            graph.add_edge(f"p{i}", dst)
    cop = build_coplacement(folders.values())
    train = {u: vectors[u] for i, u in enumerate(sorted(labels)) if i % 2 == 0}
    train_labels = {u: labels[u] for u in train}
    test = {u: vectors[u] for u in labels if u not in train}

    def acc(clf):
        clf.fit(train, train_labels, graph, cop)
        preds = clf.predict_batch(test)
        return sum(1 for u in test if preds[u][0] == labels[u]) / len(test)

    text_only = acc(EnhancedClassifier(use_links=False, use_folder=False))
    enhanced = acc(EnhancedClassifier())
    assert enhanced > text_only + 0.15
    assert enhanced > 0.8


# -- co-visitation (trail) channel --------------------------------------------

def test_covisit_channel_absent_is_bit_identical_to_three_channel():
    # No trail data: the four-channel classifier must produce EXACTLY the
    # same posteriors as use_covisit=False — the channel may not even add
    # a uniform shift.
    vectors, labels, graph, cop = _toy_world()
    train = {u: vectors[u] for u in labels}
    with_flag = EnhancedClassifier().fit(train, labels, graph, cop)
    without = EnhancedClassifier(use_covisit=False).fit(
        train, labels, graph, cop,
    )
    for url in ("xA", "xB", "d0", "d3"):
        assert with_flag.log_posteriors(url, vectors[url]) == \
            without.log_posteriors(url, vectors[url])


def test_covisit_evidence_shifts_classification():
    # "xN" is textual noise with no links or folder placement — only the
    # trail ties it to class-B companions.
    vectors, labels, graph, cop = _toy_world()
    vectors["xN"] = {9: 1.0}
    graph.add_node("xN")
    train = {u: vectors[u] for u in labels}
    covis = {"xN": [("d3", 4.0), ("d5", 2.0)]}
    base = EnhancedClassifier().fit(train, labels, graph, cop)
    trail = EnhancedClassifier().fit(
        train, labels, graph, cop, covisitation=covis,
    )
    assert trail.predict("xN", vectors["xN"])[0] == "B"
    # And the B-posterior strictly improves over the no-trail model.
    assert trail.log_posteriors("xN", vectors["xN"])["B"] > \
        base.log_posteriors("xN", vectors["xN"])["B"]


def test_covisit_votes_ignore_unlabeled_and_nonpositive_companions():
    vectors, labels, graph, cop = _toy_world()
    vectors["xN"] = {9: 1.0}
    graph.add_node("xN")
    train = {u: vectors[u] for u in labels}
    covis = {"xN": [("nobody", 9.0), ("d0", 0.0), ("d3", -1.0)]}
    clf = EnhancedClassifier().fit(
        train, labels, graph, cop, covisitation=covis,
    )
    plain = EnhancedClassifier().fit(train, labels, graph, cop)
    # Unlabeled / zero / negative counts cast no votes: bit-identical.
    assert clf.log_posteriors("xN", vectors["xN"]) == \
        plain.log_posteriors("xN", vectors["xN"])
