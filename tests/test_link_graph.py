"""``LinkGraph`` is the only graph type, and what reads it is deterministic.

``networkx`` is imported here alone, from the ``dev`` extra: its
``DiGraph`` is the oracle for the orders ``LinkGraph`` keeps (nodes in
first-insertion order, each node's successors and predecessors in
edge-insertion order), for HITS and for the classifier's co-citation
map, built from the same edges.  The surfer walks ``successors``, so the
generated event streams are pinned too: the digests were recorded with
the ``networkx`` graph, before ``LinkGraph`` replaced it.

The hash-seed tests run one probe in subprocesses under different
``PYTHONHASHSEED``s: ``popular_near``'s HITS floats and the link
channel's relaxation votes are float sums, so iterating a ``set`` there
made the output depend on the seed.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.mining.linkanalysis import LinkGraph, hits
from repro.mining.linkfolder import _cocitation_map
from repro.server.daemons import link_graph
from repro.webgen import (
    build_workload,
    generate_corpus,
    generate_links,
    master_taxonomy,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: sha256 over ``"\n".join(map(repr, events))`` for
#: ``build_workload(seed=s, num_users=4, days=6, pages_per_leaf=5)``.
EVENT_DIGESTS = {
    1: (500, "278e954243cec23c42159c8e641a2803db75b1011fcdfaa8f1bad3408f35b047"),
    5: (419, "dbbe26e4fee89c52f97fd97b610593a8418dc5bb178cc0ec885c08756b320f92"),
    9: (470, "5015a7b3256db3c6bc464a1cf7962697710554fd866d4e2c8cf63d9da9d3e42a"),
}


def _both(nodes, edges):
    """A ``LinkGraph`` and a ``DiGraph`` given the same calls."""
    ours, theirs = LinkGraph(), nx.DiGraph()
    for node in nodes:
        ours.add_node(node)
        theirs.add_node(node)
    for src, dst in edges:
        ours.add_edge(src, dst)
        theirs.add_edge(src, dst)
    return ours, theirs


def _generated(seed):
    """The calls ``generate_links`` makes, replayed from its output."""
    rng = random.Random(seed)
    corpus = generate_corpus(master_taxonomy(), rng, pages_per_leaf=6)
    graph = generate_links(corpus, rng)
    edges = [(p.url, dst) for p in corpus.pages.values() for dst in p.out_links]
    return graph, corpus.urls(), edges


def _assert_same(ours, theirs):
    assert list(ours.nodes()) == list(theirs.nodes())
    for node in theirs.nodes():
        assert list(ours.successors(node)) == list(theirs.successors(node))
        assert list(ours.predecessors(node)) == list(theirs.predecessors(node))
    assert list(ours.edges()) == list(theirs.edges())
    assert ours.number_of_edges() == theirs.number_of_edges()
    assert repr(hits(ours)) == repr(hits(theirs))
    labeled = set(list(theirs.nodes())[::3])
    assert _cocitation_map(ours, labeled) == _cocitation_map(theirs, labeled)


@pytest.mark.parametrize("seed", [2, 13, 29])
def test_generated_graphs_match_digraph(seed):
    graph, nodes, edges = _generated(seed)
    ours, theirs = _both(nodes, edges)
    _assert_same(graph, theirs)
    _assert_same(ours, theirs)


def test_a_replayed_servers_links_table_matches_digraph(live_system):
    repo = live_system.server.repo
    nodes = [row["url"] for row in repo.db.table("pages").scan()]
    edges = [(row["src"], row["dst"]) for row in repo.db.table("links").scan()]
    assert edges
    ours, theirs = _both(nodes, edges)
    _assert_same(ours, theirs)
    _assert_same(link_graph(repo), theirs)


def test_orders_under_repeats_self_loops_and_late_nodes():
    edges = [("b", "a"), ("c", "a"), ("b", "a"), ("a", "a"), ("d", "b"),
             ("a", "c"), ("c", "a"), ("e", "e")]
    ours, theirs = _both(["z", "c"], edges)
    _assert_same(ours, theirs)
    assert "e" in ours and "y" not in ours
    assert ours.number_of_edges() == 6


@pytest.mark.parametrize("seed", sorted(EVENT_DIGESTS))
def test_event_streams_are_pinned(seed):
    events = build_workload(
        seed=seed, num_users=4, days=6, pages_per_leaf=5).events
    digest = hashlib.sha256("\n".join(map(repr, events)).encode()).hexdigest()
    assert (len(events), digest) == EVENT_DIGESTS[seed]


# -- hash-seed independence ------------------------------------------------------

POPULAR_NEAR_PROBE = """
import random
from repro.mining.linkanalysis import popular_near
from repro.webgen import build_workload
graph = build_workload(seed=11, pages_per_leaf=10).graph
nodes = sorted(graph.nodes())
rng = random.Random(0)
for _ in range(40):
    seeds = set(rng.sample(nodes, rng.randint(1, 6)))
    print(repr(popular_near(graph, seeds, k=10, hops=rng.choice((1, 2)))))
"""

LINK_CHANNEL_PROBE = """
from repro.mining.linkfolder import EnhancedClassifier, build_coplacement
from repro.text import Vocabulary, text_vector
from repro.webgen import bookmark_challenge_workload, labelled_bookmark_dataset
workload = bookmark_challenge_workload(seed=7, num_users=3)
vocab = Vocabulary()
labels, folders, vectors = {}, {}, {}
for user, url, folder in labelled_bookmark_dataset(workload, min_per_folder=4):
    labels.setdefault(url, f"{user}/{folder}")
    folders.setdefault(f"{user}/{folder}", []).append(url)
for url in labels:
    page = workload.corpus.pages[url]
    vectors[url] = text_vector(vocab, page.title + " " + page.text)
urls = sorted(labels)
train = {u: labels[u] for u in urls[::2]}
clf = EnhancedClassifier().fit(
    {u: vectors[u] for u in train}, train, workload.graph,
    build_coplacement(folders.values()))
out = clf.predict_batch({u: vectors[u] for u in urls[1::2]})
print(len(out), repr(sorted(out.items())))
"""


def _outputs(probe):
    outputs = []
    for seed in ("0", "1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
        )
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    return outputs


def test_popular_near_does_not_depend_on_the_hash_seed():
    first, *rest = _outputs(POPULAR_NEAR_PROBE)
    assert first.count(b"\n") == 40
    assert all(out == first for out in rest)


def test_the_link_channel_does_not_depend_on_the_hash_seed():
    first, *rest = _outputs(LINK_CHANNEL_PROBE)
    assert int(first.split()[0]) > 100
    assert all(out == first for out in rest)
