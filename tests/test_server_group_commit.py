"""A mining run is one group commit.

The crawler stores a version with one catalog transaction and one text
write; the indexer a slice of at most 64 pages with one term-store
write; the dense daemon and the classifier likewise; an acknowledged
visit, history import or folder-tab write is one catalog commit.
What they store must equal, byte for byte and row for row, what the
per-record code in ``mining_reference`` stores for the same input, and
what they fsync must not depend on how many pages a version holds.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MemexSystem
from repro.core.memex import MemexServer
from repro.errors import StorageError
from repro.obs import MetricsRegistry
from repro.obs.top import split_name
from repro.server.daemons import (
    ClassifierDaemon,
    CrawlerDaemon,
    FetchedPage,
    IndexerDaemon,
    PageVectorizer,
)
from repro.storage import wal as wal_module
from repro.storage.repository import MemexRepository
from repro.storage.schema import (
    ARCHIVE_COMMUNITY,
    ASSOC_BOOKMARK,
    ASSOC_GUESS,
)
from repro.text.index import InvertedIndex
from repro.webgen import build_workload

from .mining_reference import (
    _reference_crawler_run_once,
    _reference_dense_run_once,
    _reference_indexer_run_once,
)


def _tables(repo):
    return {name: list(repo.db.table(name).scan()) for name in repo.db.tables()}


def _terms(repo):
    return dict(repo.kv.cursor())


# -- differential oracle: a replayed community --------------------------------

def _with_reference_daemons(system):
    server, seen_links = system.server, set()
    server.crawler.run_once = lambda: _reference_crawler_run_once(
        server.crawler, seen_links)
    server.indexer.run_once = lambda: _reference_indexer_run_once(
        server.indexer)
    server.dense.run_once = lambda: _reference_dense_run_once(server.dense)
    return system


@pytest.fixture(scope="module")
def workload():
    return build_workload(seed=31, num_users=4, days=4, pages_per_leaf=12)


@pytest.mark.parametrize("tick_every", [7, 40, 10 ** 9])
def test_replay_stores_what_the_per_record_daemons_store(workload, tick_every):
    """Small versions, mid-size versions, and (never ticking before the
    end) full 64-page versions: every term-store namespace (``idx.post``
    / ``idx.docs`` / ``rawtext`` / ``dense``; nothing
    writes ``_seq``, ``idx.norm`` or ``idx.pos``)
    and every catalog table (``pages``, ``links``, and what the
    classifier made of them) is equal, and so is what a search returns."""
    user = workload.profiles[0].user_id
    systems = [
        MemexSystem.from_workload(workload),
        _with_reference_daemons(MemexSystem.from_workload(workload)),
    ]
    answers = []
    for system in systems:
        with system:
            system.replay(workload.events, tick_every=tick_every)
            answers.append((
                _terms(system.server.repo),
                _tables(system.server.repo),
                system.connect(user).search("music history", limit=20),
            ))
    new, ref = answers
    assert len(new[1]["pages"]) > 64 and new[1]["links"]
    namespaces = {key.split(b"\x00")[0] for key in new[0]}
    assert namespaces >= {
        b"idx.post", b"idx.docs", b"rawtext", b"embed"}
    assert not namespaces & {b"_seq", b"idx.norm", b"idx.pos"}
    assert new[0] == ref[0]
    assert new[1] == ref[1]
    assert new[2] == ref[2]


# -- differential oracle: the crawler, batch by batch -------------------------

_URLS = [f"http://w/{i}" for i in range(8)]
_PAGE = st.one_of(
    st.none(),                                           # a dead link
    st.tuples(
        st.sampled_from(["", "Title", "Other title"]),
        st.sampled_from(["", "jazz music", "surfing trail archive"]),
        st.lists(st.sampled_from(_URLS + ["http://w/out"]), max_size=4),
        st.booleans(),
    ),
)
_ROUNDS = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_URLS), max_size=3),    # visited first
        st.lists(st.sampled_from(_URLS), min_size=1, max_size=8),  # enqueued
    ),
    min_size=1, max_size=3,
)


def _crawl_rounds(web, rounds, batch_size, run_once):
    def fetch(url):
        page = web[url]
        if page is None:
            return None
        title, text, out_links, front_page = page
        return FetchedPage(url, title, text, tuple(out_links), front_page)

    now = [0.0]
    repo = MemexRepository()
    repo.versions.register_consumer("probe")
    crawler = CrawlerDaemon(repo, fetch, clock=lambda: now[0])
    crawler.BATCH = batch_size
    seen_links = set()
    published = []
    for visited, enqueued in rounds:
        now[0] += 1.0
        for url in visited:
            repo.upsert_page(url, now=now[0])        # the visit's stub row
        for url in enqueued:
            crawler.enqueue(url)
        now[0] += 1.0
        while run_once(crawler, seen_links):
            pass
        watermark, items = repo.versions.poll("probe")
        repo.versions.ack("probe", watermark)
        published.append(items)
    return _terms(repo), _tables(repo), published, crawler.dead_count


@given(
    web=st.fixed_dictionaries({url: _PAGE for url in _URLS}),
    rounds=_ROUNDS,
    batch_size=st.sampled_from([1, 3, 64]),
)
@settings(max_examples=150, deadline=None)
def test_crawler_batches_store_what_per_item_upserts_would(
        web, rounds, batch_size):
    """Link stubs fetched later in the same batch (``front_page`` stays
    as inserted), pages linking to themselves and twice to one page,
    dead links mid-batch, pages known from a visit and pages never seen."""
    new = _crawl_rounds(
        web, rounds, batch_size, lambda crawler, _: crawler.run_once())
    ref = _crawl_rounds(web, rounds, batch_size, _reference_crawler_run_once)
    assert new == ref


def test_a_stub_fetched_later_in_its_batch_keeps_its_front_page():
    pages = {
        "http://a/": FetchedPage("http://a/", "A", "alpha", ("http://b/",)),
        "http://b/": FetchedPage("http://b/", "B", "beta", (), front_page=True),
    }
    repo = MemexRepository()
    crawler = CrawlerDaemon(repo, pages.get, clock=lambda: 5.0)
    crawler.BATCH = 8
    crawler.enqueue("http://a/")
    crawler.enqueue("http://b/")
    assert crawler.run_once() == 2
    row = repo.db.table("pages").get("http://b/")
    assert row["fetched"] and row["title"] == "B"
    assert row["front_page"] is False        # as upsert_page leaves it
    assert repo.page_text("http://b/") == "beta"


def test_a_fetch_that_raises_stores_nothing_and_requeues_the_batch():
    calls = []

    def fetch(url):
        calls.append(url)
        if len(calls) == 3:
            raise ConnectionError("simulated network error")
        return FetchedPage(url, "T", f"text of {url}", ("http://out/",))

    repo = MemexRepository()
    repo.versions.register_consumer("probe")
    crawler = CrawlerDaemon(repo, fetch)
    crawler.BATCH = 4
    for i in range(4):
        crawler.enqueue(f"http://p{i}/")
    before = _terms(repo), _tables(repo)
    with pytest.raises(ConnectionError):
        crawler.run_once()
    assert (_terms(repo), _tables(repo)) == before       # nothing written
    assert repo.versions.poll("probe") == (0, [])        # version aborted
    assert crawler.backlog == 4                          # whole batch back
    assert crawler.run_once() == 4
    assert len(repo.db.table("links")) == 4
    assert sorted(repo.versions.poll("probe")[1]) == [
        f"http://p{i}/" for i in range(4)]


# -- the fsync budget ---------------------------------------------------------

def _fsyncs_per_run(tmp_path, monkeypatch, n_pages):
    pages = {
        f"http://p/{i}": FetchedPage(
            f"http://p/{i}", f"Page {i}",
            f"jazz music archive number{i} trail",
            (f"http://p/{(i + 1) % n_pages}", f"http://out/{i}"))
        for i in range(n_pages)
    }
    count = [0]
    real_fsync = os.fsync

    def counting_fsync(fd):
        count[0] += 1
        real_fsync(fd)

    system = MemexSystem(MemexServer(
        pages.get, root=str(tmp_path / f"n{n_pages}"), sync=True))
    with system:
        applet = system.register_user("u")
        applet.batch_size = n_pages
        for i, url in enumerate(pages):
            applet.record_visit(url, at=float(i))
        applet.flush()
        monkeypatch.setattr(os, "fsync", counting_fsync)
        spent = {}
        server = system.server
        for daemon in (server.crawler, server.indexer, server.dense):
            before = count[0]
            assert daemon.run_once() == n_pages
            spent[daemon.name] = count[0] - before
        monkeypatch.setattr(os, "fsync", real_fsync)
    return spent


def test_fsyncs_per_version_are_a_small_constant(tmp_path, monkeypatch):
    """Catalog transaction, raw texts; one index write; one vector write
    — whether the version holds 16 pages or 64."""
    small = _fsyncs_per_run(tmp_path, monkeypatch, 16)
    full = _fsyncs_per_run(tmp_path, monkeypatch, 64)
    assert small == full == {"crawler": 2, "indexer": 1, "dense": 1}


def _fsyncs(server):
    return {
        labels["log"]: value
        for key, value in server.metrics.raw_snapshot()["counters"].items()
        for name, labels in [split_name(key)]
        if name == "storage.wal.fsyncs"
    }


def test_the_server_reports_every_fsync_of_both_logs(tmp_path, monkeypatch):
    """A server writes two logs, ``catalog.wal`` and ``terms.kv``; each
    counts its own fsyncs under its own ``log`` label, so the series sum
    to every fsync the server made."""
    count = [0]
    real_fsync = os.fsync

    def counting_fsync(fd):
        count[0] += 1
        real_fsync(fd)

    monkeypatch.setattr(wal_module.os, "fsync", counting_fsync)
    with MemexServer(lambda url: None, root=str(tmp_path), sync=True) as server:
        server.transport.request("u", {"servlet": "register_user"})
        server.transport.request_batch("u", [
            {"servlet": "visit", "url": f"http://p/{i}", "at": float(i)}
            for i in range(8)
        ])
        fsyncs = _fsyncs(server)
        assert count[0] > 0
        assert sum(fsyncs.values()) == count[0]
        assert set(fsyncs) == {"catalog.wal", "terms.kv"}


def test_an_ack_is_one_catalog_fsync(tmp_path):
    """Ids come from the catalog, so an acknowledged visit, visit batch,
    history import or folder-tab write commits once to ``catalog.wal``
    and never to ``terms.kv``: a bookmark (dropping a classifier guess on
    the way), a folder creation, a move (with and without its source
    folder, relabelling the page's visits) and an accepted hierarchy,
    each into a new nested path as well."""
    with MemexServer(lambda url: None, root=str(tmp_path), sync=True) as server:
        ask = server.transport.request
        ask("u", {"servlet": "register_user"})
        ask("u", {"servlet": "folder_create", "path": "Jazz"})
        with server.repo.edit(0.0) as edit:
            edit.guess("u:Jazz", "http://p/1", 0.5)
        proposal = {"name": "x/y", "urls": [], "children": [
            {"name": "Early", "urls": ["http://h/0", "http://h/1"],
             "children": []},
            {"name": "Late", "urls": ["http://h/2", "http://p/1"],
             "children": []}]}
        acks = {
            "visit_batch": lambda: server.transport.request_batch("u", [
                {"servlet": "visit", "url": f"http://p/{i}", "at": float(i)}
                for i in range(8)
            ]),
            "visit": lambda: [ask(
                "u", {"servlet": "visit", "url": "http://new/", "at": 9.0})],
            "repeat visit": lambda: [ask(
                "u", {"servlet": "visit", "url": "http://new/", "at": 10.0})],
            "bookmark": lambda: [ask("u", {
                "servlet": "bookmark", "url": "http://p/1",
                "folder_path": "Jazz", "at": 11.0})],
            # Its rows, and the session ids of the earlier session-less
            # visits above, which it numbers with its own entries.
            "import_history": lambda: [ask("u", {
                "servlet": "import_history", "entries": [
                    {"url": f"http://h/{i}", "at": 12.0 + i}
                    for i in range(3)]})],
            "folder_create": lambda: [ask("u", {
                "servlet": "folder_create", "path": "a/b/c", "at": 16.0})],
            "bookmark into a new path": lambda: [ask("u", {
                "servlet": "bookmark", "url": "http://h/0",
                "folder_path": "x/y", "at": 17.0})],
            "bookmark into an existing path": lambda: [ask("u", {
                "servlet": "bookmark", "url": "http://h/1",
                "folder_path": "x/y", "at": 17.5})],
            "folder_move into a new path": lambda: [ask("u", {
                "servlet": "folder_move", "url": "http://p/2",
                "to_folder": "m/n", "at": 18.0})],
            "folder_move from a folder": lambda: [ask("u", {
                "servlet": "folder_move", "url": "http://h/0",
                "from_folder": "x/y", "to_folder": "q", "at": 19.0})],
            "apply_hierarchy": lambda: [ask("u", {
                "servlet": "apply_hierarchy", "folder_path": "x/y",
                "proposal": proposal, "at": 20.0})],
        }
        for name, ack in acks.items():
            before = _fsyncs(server)
            assert all(r["status"] == "ok" for r in ack()), name
            after = _fsyncs(server)
            assert after["catalog.wal"] - before["catalog.wal"] == 1, name
            assert after["terms.kv"] == before["terms.kv"], name
        folders = {f["path"]: [i["url"] for i in f["items"]]
                   for f in ask("u", {"servlet": "folders_get"})["folders"]}
        # The hierarchy moves what x/y files (h/1): h/0 left it for q,
        # and h/2 and p/1 were never in it, so no x/y/Late is made.
        assert folders == {
            "Jazz": ["http://p/1"], "a": [], "a/b": [], "a/b/c": [],
            "x": [], "x/y": [], "x/y/Early": ["http://h/1"], "m": [],
            "m/n": ["http://p/2"],
            "q": ["http://h/0"]}
        assert [row["topic_folder"] for row in server.repo.db.table(
            "visits").select({"url": "http://p/2"})] == ["u:m/n"]
    with MemexServer(lambda url: None, root=str(tmp_path)) as reopened:
        filings = reopened.repo.db.table("folder_pages").select(
            {"url": "http://p/1"})
        assert [row["source"] for row in filings] == [ASSOC_BOOKMARK]


def test_an_indexer_many_versions_behind_commits_slice_by_slice():
    def fetch(url):
        return FetchedPage(url, "T", f"jazz text of {url}")

    repo = MemexRepository()
    crawler = CrawlerDaemon(repo, fetch)
    indexer = IndexerDaemon(
        repo, InvertedIndex(repo.kv), vectorizer=PageVectorizer(repo))
    for i in range(5 * 64):
        crawler.enqueue(f"http://p/{i}")
    while crawler.run_once():
        pass
    assert repo.versions.staleness("indexer") == 5
    writes = []
    real_put_many = repo.kv.put_many
    repo.kv.put_many = lambda items: writes.append(1) or real_put_many(items)
    assert indexer.run_once() == 5 * 64
    assert len(writes) == 5                  # 5 unacked versions, 5 commits
    assert repo.versions.staleness("indexer") == 0
    assert indexer.index.num_docs == 5 * 64


def _trained_classifier(metrics=None):
    """A repository with two bookmarked folders of two pages each and
    ten unfiled visits, and a classifier over it."""
    pages = {
        "http://c1/": "classical symphony orchestra bach mozart concert",
        "http://c2/": "beethoven sonata violin symphony classical opera",
        "http://c3/": "orchestra conductor philharmonic classical concerto",
        "http://j1/": "jazz saxophone improvisation coltrane bebop swing",
        "http://j2/": "trumpet jazz quartet improvisation blues standards",
        "http://j3/": "saxophone bebop jazz swing club session",
    }
    repo = MemexRepository(metrics=metrics)
    repo.add_user("u", now=0.0)
    crawler = CrawlerDaemon(repo, lambda url: FetchedPage(url, url, pages[url]))
    crawler.BATCH = 8
    for url in pages:
        crawler.enqueue(url)
    crawler.run_once()
    for folder, urls in (("Classical", ("http://c1/", "http://c2/")),
                         ("Jazz", ("http://j1/", "http://j2/"))):
        with repo.edit(1.0) as edit:
            for url in urls:
                edit.bookmark(edit.folder("u", folder), url)
    for i in range(5):
        for url in ("http://c3/", "http://j3/"):
            repo.record_visit_batch([dict(
                user_id="u", url=url, at=10.0 + i, session_id=1, referrer=None,
                archive_mode=ARCHIVE_COMMUNITY)])
    return repo, ClassifierDaemon(repo, PageVectorizer(repo))


def test_a_classifier_run_annotates_its_visits_in_one_transaction():
    metrics = MetricsRegistry()
    repo, clf = _trained_classifier(metrics)
    before = metrics.counter_value("storage.relational.commits")
    assert clf.run_once() == 10
    # Ten visits and one guess association per page, in one transaction.
    assert metrics.counter_value("storage.relational.commits") - before == 1
    assert all(v["topic_folder"] for v in repo.db.table("visits").scan())
    assert sorted(
        (row["url"], row["folder_id"]) for row in repo.db.table(
            "folder_pages").scan() if row["source"] == ASSOC_GUESS
    ) == [("http://c3/", "u:Classical"), ("http://j3/", "u:Jazz")]


def _catalog_and_stamps(repo):
    return _tables(repo), {
        slot: repr(getattr(repo.stamps, slot))
        for slot in type(repo.stamps).__slots__
    }


def _fail_commits(db):
    def fail(txn):
        raise StorageError("injected at the commit")

    db._commit = fail


def test_a_fault_at_a_classifier_runs_commit_changes_nothing():
    """The run's guesses (one replacing an older guess) and labels are
    one edit: a commit that fails leaves every filing, guess and label,
    and every stamp, as it was, and acks nothing, so the next run files
    the same visits."""
    repo, clf = _trained_classifier()
    with repo.edit(2.0) as edit:
        edit.guess("u:Jazz", "http://c3/", 0.3)
    before = _catalog_and_stamps(repo)
    _fail_commits(repo.db)
    with pytest.raises(StorageError):
        clf.run_once()
    assert _catalog_and_stamps(repo) == before
    del repo.db._commit
    assert clf.run_once() == 10
    assert sorted(
        (row["url"], row["folder_id"]) for row in repo.db.table(
            "folder_pages").scan() if row["source"] == ASSOC_GUESS
    ) == [("http://c3/", "u:Classical"), ("http://j3/", "u:Jazz")]


@pytest.mark.parametrize("source", ["Old", None])
def test_a_fault_at_a_folder_moves_commit_changes_nothing(source):
    """A move into a new nested path (out of a named folder, or dropping
    the owner's guesses) is one edit: a commit that fails creates no
    folder, files and unfiles nothing, relabels no visit and moves no
    stamp."""
    with MemexServer(lambda url: None) as server:
        ask = server.transport.request
        ask("u", {"servlet": "register_user"})
        ask("u", {"servlet": "visit", "url": "http://p/1", "at": 1.0})
        ask("u", {"servlet": "bookmark", "url": "http://p/1",
                  "folder_path": "Old", "at": 2.0})
        with server.repo.edit(3.0) as edit:
            edit.guess(edit.folder("u", "Guessed"), "http://p/1", 0.4)
        move = {"servlet": "folder_move", "url": "http://p/1",
                "to_folder": "new/deep", "at": 4.0}
        if source is not None:
            move["from_folder"] = source
        before = _catalog_and_stamps(server.repo)
        _fail_commits(server.repo.db)
        assert ask("u", dict(move))["status"] != "ok"
        assert _catalog_and_stamps(server.repo) == before
        del server.repo.db._commit
        assert ask("u", dict(move))["removed"] == 1
        assert _catalog_and_stamps(server.repo) != before
        assert server.repo.db.table("visits").get(1)["topic_folder"] == "u:new/deep"
