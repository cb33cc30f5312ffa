"""Tests for HITS and the popular-near query."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.linkanalysis import LinkGraph, hits, popular_near


def hub_authority_graph():
    """Two hubs pointing at three authorities; one authority dominant."""
    g = LinkGraph()
    for hub in ["h1", "h2"]:
        for auth in ["a1", "a2"]:
            g.add_edge(hub, auth)
    g.add_edge("h1", "a3")
    g.add_node("isolated")
    return g


def test_hits_separates_hubs_and_authorities():
    hubs, auths = hits(hub_authority_graph())
    assert hubs["h1"] > auths["h1"]
    assert auths["a1"] > hubs["a1"]
    # a1/a2 (cited by both hubs) beat a3 (cited by one).
    assert auths["a1"] > auths["a3"]
    assert auths["a2"] > auths["a3"]
    assert auths["isolated"] == 0.0
    assert hubs["isolated"] == 0.0


def test_hits_empty_graph():
    assert hits(LinkGraph()) == ({}, {})


def test_hits_scores_normalized():
    hubs, auths = hits(hub_authority_graph())
    l2 = lambda d: sum(v * v for v in d.values()) ** 0.5  # noqa: E731
    assert l2(hubs) == pytest.approx(1.0)
    assert l2(auths) == pytest.approx(1.0)


def test_popular_near_finds_neighborhood_authority():
    g = LinkGraph()
    # Seed s links to star; many outside pages also cite star.
    g.add_edge("s", "star")
    for i in range(5):
        g.add_edge(f"fan{i}", "star")
        g.add_edge("hubby", f"fan{i}")
    ranked = popular_near(g, {"s"}, k=3, hops=1)
    assert ranked
    assert ranked[0][0] == "star"


def test_popular_near_unknown_seeds():
    g = LinkGraph()
    g.add_edge("a", "b")
    assert popular_near(g, {"zzz"}) == []
    assert popular_near(g, set()) == []


def test_popular_near_hops_widen_the_net():
    g = LinkGraph()
    g.add_edge("seed", "mid")
    g.add_edge("mid", "far")
    g.add_edge("x", "far")
    one = dict(popular_near(g, {"seed"}, k=10, hops=1))
    two = dict(popular_near(g, {"seed"}, k=10, hops=2))
    assert "far" not in one
    assert "far" in two


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40,
))
def test_hits_properties_on_random_graphs(edges):
    g = LinkGraph()
    for a, b in edges:
        if a != b:
            g.add_edge(f"n{a}", f"n{b}")
    hubs, auths = hits(g)
    assert all(v >= 0 for v in hubs.values())
    assert all(v >= 0 for v in auths.values())
    if g.number_of_edges() > 0:
        l2a = sum(v * v for v in auths.values()) ** 0.5
        assert l2a == pytest.approx(1.0, abs=1e-6)
