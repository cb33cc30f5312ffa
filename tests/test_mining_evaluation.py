"""Tests for the evaluation utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mining.evaluation import accuracy, precision_at_k


def test_accuracy_basic():
    assert accuracy(["a", "b"], ["a", "b"]) == 1.0
    assert accuracy(["a", "b"], ["b", "a"]) == 0.0
    assert accuracy(["a", "b", "a", "b"], ["a", "b", "b", "b"]) == 0.75
    assert accuracy([], []) == 0.0
    with pytest.raises(ValueError):
        accuracy(["a"], [])


def test_precision_at_k():
    ranked = ["a", "b", "c", "d"]
    relevant = {"a", "c", "x"}
    assert precision_at_k(ranked, relevant, 2) == 0.5
    assert precision_at_k(ranked, relevant, 4) == 0.5
    assert precision_at_k([], relevant, 3) == 0.0
    with pytest.raises(ValueError):
        precision_at_k(ranked, relevant, 0)


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=50))
def test_accuracy_self_is_one(labels):
    assert accuracy(labels, labels) == 1.0
