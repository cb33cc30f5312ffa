"""Tests for hierarchy proposal and the new community-popularity servlets."""

import pytest

from repro.core import MemexSystem
from repro.core.archive import folder_id
from repro.core.organize import ProposedFolder, propose_hierarchy
from repro.errors import EmptyCorpus
from repro.server.daemons import FetchedPage
from repro.storage.schema import ASSOC_CORRECTION


def _all_urls(folder):
    """Every page *folder* and its subfolders file."""
    return folder.urls + [url for child in folder.children for url in _all_urls(child)]


def _system_with_pages(pages):
    from repro.core.memex import MemexServer
    return MemexSystem(MemexServer(lambda u: pages.get(u)))


@pytest.fixture
def messy_import_system():
    """A user who imported one fat folder mixing three clear topics."""
    pages = {}
    topics = {
        "music": "symphony orchestra violin concerto classical opera bach",
        "cycling": "bicycle pedal saddle helmet derailleur tour mountain",
        "chess": "opening endgame gambit knight bishop checkmate tournament",
    }
    for topic, words in topics.items():
        for i in range(5):
            url = f"http://{topic}{i}/"
            pages[url] = FetchedPage(url, topic.title(), f"{words} page {i}", ())
    system = _system_with_pages(pages)
    applet = system.register_user("alice")
    t = 0.0
    for url in pages:
        t += 10.0
        applet.bookmark(url, "Imported", at=t)
    system.server.process_background_work()
    return system, applet, pages, topics


def test_propose_hierarchy_clusters_by_topic(messy_import_system):
    system, applet, pages, topics = messy_import_system
    proposal = applet.propose_organization("Imported", min_cluster=3)
    assert proposal is not None
    root = ProposedFolder.from_payload(proposal)
    assert sorted(_all_urls(root)) == sorted(pages)
    # The proposal separates the three topics into (near-)pure groups.
    groups = [c for c in root.children] or [root]
    leaf_groups = []

    def leaves(folder):
        if folder.children:
            for child in folder.children:
                leaves(child)
        if folder.urls:
            leaf_groups.append(folder.urls)

    leaves(root)
    assert len(leaf_groups) >= 2
    pure = 0
    for group in leaf_groups:
        kinds = {u.strip("http://")[:4] for u in group}
        if len(kinds) == 1:
            pure += len(group)
    assert pure / len(pages) > 0.7


def test_proposal_labels_are_topical(messy_import_system):
    system, applet, _pages, _topics = messy_import_system
    root = ProposedFolder.from_payload(applet.propose_organization("Imported"))
    labels = []

    def collect(folder):
        labels.append(folder.name)
        for child in folder.children:
            collect(child)

    collect(root)
    text = " ".join(labels).lower()
    topical_words = {"symphoni", "orchestra", "bicycl", "pedal", "open",
                     "gambit", "knight", "classic", "chess", "violin",
                     "concerto", "saddl", "helmet", "endgam", "checkmat",
                     "tour", "bishop", "opera"}
    assert any(w in text for w in topical_words)
    # Names are unique.
    assert len(labels) == len(set(labels))


def test_apply_proposal_moves_items(messy_import_system):
    system, applet, pages, _topics = messy_import_system
    proposal = applet.propose_organization("Imported")
    moved = applet.apply_organization("Imported", proposal, at=10_000.0)
    assert moved > 0
    repo = system.server.repo
    base = folder_id("alice", "Imported")
    remaining = repo.folder_pages(base)
    # Moved items became corrections in subfolders.
    corrections = repo.db.table("folder_pages").select({"source": ASSOC_CORRECTION})
    assert len(corrections) == moved
    view = applet.folder_view()
    subfolders = [
        f for f in view["folders"]
        if f["path"].startswith("Imported/") and f["items"]
    ]
    assert subfolders
    # Nothing lost: all urls still filed somewhere under Imported.
    filed = {
        i["url"] for f in view["folders"]
        if f["path"] == "Imported" or f["path"].startswith("Imported/")
        for i in f["items"]
    }
    assert filed == set(pages)


def test_propose_empty_folder(messy_import_system):
    system, applet, _p, _t = messy_import_system
    applet.create_folder("Empty", at=0.0)
    assert applet.propose_organization("Empty") is None


def test_propose_hierarchy_requires_fetched_pages():
    system = _system_with_pages({})
    with pytest.raises(EmptyCorpus):
        propose_hierarchy(system.server.vectorizer, ["http://ghost/"])


def test_proposal_payload_roundtrip(messy_import_system):
    _s, applet, _p, _t = messy_import_system
    payload = applet.propose_organization("Imported")
    root = ProposedFolder.from_payload(payload)
    assert root.to_payload() == payload
    assert "Proposed organization" in root.render()


def test_popular_near_trail_servlet(live_system, small_workload):
    profile = small_workload.profiles[0]
    top = max(profile.interests.items(), key=lambda kv: kv[1])[0]
    folder = profile.folder_for_topic(top)
    applet = live_system.connect(profile.user_id)
    pages = applet.popular_near_trail(folder, k=8)
    assert pages
    scores = [p["score"] for p in pages]
    assert scores == sorted(scores, reverse=True)
    assert any(p["in_trail"] for p in pages)
    # Popularity may surface near-trail pages the user never visited.
    assert all(p["score"] > 0 for p in pages)


def _doc_freqs(vocab):
    return {vocab.term(tid): vocab.doc_freq(tid) for tid in range(len(vocab))}


def test_server_state_roundtrip(tmp_path):
    """Models, vocabulary, catalog, and index survive a server restart,
    and the restarted server counts no page into the vocabulary twice."""
    pages = {}
    for topic, words in [
        ("music", "symphony orchestra violin concerto opera"),
        ("chess", "gambit knight bishop endgame checkmate"),
    ]:
        for i in range(4):
            url = f"http://{topic}{i}/"
            pages[url] = FetchedPage(url, topic, f"{words} {i}", ())

    from repro.core.memex import MemexServer
    root = tmp_path / "memex"
    server = MemexServer(lambda u: pages.get(u), root=str(root))
    system = MemexSystem(server)
    applet = system.register_user("u")
    t = 0.0
    for url in pages:
        t += 10.0
        folder = "Music" if "music" in url else "Chess"
        applet.bookmark(url, folder, at=t)
        applet.record_visit(url, at=t)
    server.process_background_work()
    vocab_before = server.vectorizer.vocab
    model_before = server.classifier.model_for("u")
    test_vec = server.vectorizer.vector("http://music0/")
    pred_before = model_before.predict("http://music0/", test_vec)
    server.close()

    server2 = MemexServer(lambda u: pages.get(u), root=str(root))
    restored = server2.restore_state()
    assert restored["models"] == 1
    server2.process_background_work()
    assert server2.now > 0
    # Catalog survived.
    assert len(server2.repo.db.table("visits")) == len(pages)
    # The restored model predicts identically.
    vec2 = server2.vectorizer.vector("http://music0/")
    pred_after = server2.classifier.model_for("u").predict("http://music0/", vec2)
    assert pred_after[0] == pred_before[0]
    assert pred_after[1] == pytest.approx(pred_before[1], rel=1e-6)
    # Every page was counted into the vocabulary once, before the restart.
    vocab_after = server2.vectorizer.vocab
    assert vocab_after.num_docs == vocab_before.num_docs == len(pages)
    assert _doc_freqs(vocab_after) == _doc_freqs(vocab_before)
    # The index survived through the kvstore.
    assert server2.index.num_docs == len(pages)
    server2.close()
