"""Tests for the crawler/indexer/classifier/theme/discovery daemons."""

import inspect
import threading

import pytest

from repro.core import MemexServer, MemexSystem
from repro.errors import NotFitted
from repro.obs import MetricsRegistry
from repro.retrieval.covisit import CoVisitMinerDaemon
from repro.retrieval.dense import DenseIndexDaemon
from repro.server.daemons import (
    ClassifierDaemon,
    CrawlerDaemon,
    DiscoveryDaemon,
    FetchedPage,
    IndexerDaemon,
    PageVectorizer,
    ThemeDaemon,
    link_graph,
)
from repro.server.scheduler import DaemonScheduler
from repro.storage.repository import MemexRepository
from repro.storage.schema import (
    ARCHIVE_COMMUNITY,
    ASSOC_BOOKMARK,
    ASSOC_CORRECTION,
    ASSOC_GUESS,
)
from repro.text.index import InvertedIndex
from repro.webgen import build_workload

PAGES = {
    "http://c1/": ("Classical 1", "classical symphony orchestra bach mozart concert", ("http://c2/",)),
    "http://c2/": ("Classical 2", "beethoven sonata violin symphony classical opera", ("http://c1/",)),
    "http://c3/": ("Classical 3", "orchestra conductor philharmonic classical concerto", ()),
    "http://j1/": ("Jazz 1", "jazz saxophone improvisation coltrane bebop swing", ("http://j2/",)),
    "http://j2/": ("Jazz 2", "trumpet jazz quartet improvisation blues standards", ("http://j1/",)),
    "http://j3/": ("Jazz 3", "saxophone bebop jazz swing club session", ()),
    "http://front/": ("Front", "home links welcome", ("http://c1/", "http://c2/")),
}


def fetch(url):
    if url not in PAGES:
        return None
    title, text, links = PAGES[url]
    return FetchedPage(url=url, title=title, text=text, out_links=links,
                       front_page=(url == "http://front/"))


@pytest.fixture
def repo():
    r = MemexRepository()
    r.add_user("u", now=0.0)
    yield r
    r.close()


@pytest.fixture
def crawler(repo):
    crawler = CrawlerDaemon(repo, fetch, clock=lambda: 100.0)
    crawler.BATCH = 3
    return crawler


def test_crawler_fetches_and_publishes(repo, crawler):
    repo.versions.register_consumer("probe")
    for url in ["http://c1/", "http://j1/", "http://dead/"]:
        crawler.enqueue(url)
    assert crawler.backlog == 3
    done = crawler.run_once()
    assert done == 2
    assert crawler.dead_count == 1
    assert repo.page_text("http://c1/") is not None
    # Links recorded, link targets exist as unfetched pages.
    assert repo.out_links("http://c1/") == ["http://c2/"]
    assert repo.db.table("pages").get("http://c2/")["fetched"] is False
    # The batch was published as one version.
    watermark, items = repo.versions.poll("probe")
    assert watermark == 1
    assert set(items) == {"http://c1/", "http://j1/"}


def test_crawler_enqueue_dedup(repo, crawler):
    crawler.enqueue("http://c1/")
    crawler.enqueue("http://c1/")
    assert crawler.backlog == 1
    crawler.run_once()
    crawler.enqueue("http://c1/")  # already fetched: ignored
    assert crawler.backlog == 0


def test_crawler_idle_run(repo, crawler):
    assert crawler.run_once() == 0
    assert repo.versions.published_version == 0  # no empty versions


def test_indexer_follows_crawler(repo, crawler):
    index = InvertedIndex(repo.kv)
    indexer = IndexerDaemon(repo, index, vectorizer=PageVectorizer(repo))
    crawler.enqueue("http://c1/")
    crawler.run_once()
    assert indexer.run_once() == 1
    assert "http://c1/" in index.document_ids()
    assert indexer.run_once() == 0  # acked; no re-indexing
    crawler.enqueue("http://j1/")
    crawler.run_once()
    assert indexer.run_once() == 1


def _bookmark(repo, user, folder, path, url, at=1.0):
    with repo.edit(at) as edit:
        fid = edit.folder(user, path)
        edit.bookmark(fid, url)
    return fid


def _crawl_all(repo, crawler):
    for url in PAGES:
        crawler.enqueue(url)
    while crawler.run_once():
        pass


def test_classifier_trains_and_guesses(repo, crawler):
    vec = PageVectorizer(repo)
    clf = ClassifierDaemon(repo, vec, clock=lambda: 50.0)
    _crawl_all(repo, crawler)
    cl_folder = _bookmark(repo, "u", "Classical", "Classical", "http://c1/")
    _bookmark(repo, "u", "Classical", "Classical", "http://c2/")
    jz_folder = _bookmark(repo, "u", "Jazz", "Jazz", "http://j1/")
    _bookmark(repo, "u", "Jazz", "Jazz", "http://j2/")
    # Unclassified visits to held-out pages.
    repo.record_visit_batch([dict(
        user_id="u", url="http://c3/", at=10.0, session_id=1, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])
    repo.record_visit_batch([dict(
        user_id="u", url="http://j3/", at=11.0, session_id=1, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])
    done = clf.run_once()
    assert done == 2
    visits = repo.db.table("visits").select(order_by="at")
    assert visits[0]["topic_folder"] == cl_folder
    assert visits[1]["topic_folder"] == jz_folder
    # Guess associations were written.
    guesses = repo.folder_pages(cl_folder, sources=(ASSOC_GUESS,))
    assert [g["url"] for g in guesses] == ["http://c3/"]
    assert clf.model_for("u") is not None


def test_classifier_needs_enough_supervision(repo, crawler):
    vec = PageVectorizer(repo)
    clf = ClassifierDaemon(repo, vec)
    _crawl_all(repo, crawler)
    _bookmark(repo, "u", "Classical", "Classical", "http://c1/")
    repo.record_visit_batch([dict(
        user_id="u", url="http://c3/", at=1.0, session_id=1, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])
    assert clf.run_once() == 0  # one class, one example: refuses to train
    with pytest.raises(NotFitted):
        clf.model_for("u")


def test_classifier_skips_unfetched_pages(repo, crawler):
    vec = PageVectorizer(repo)
    clf = ClassifierDaemon(repo, vec)
    _crawl_all(repo, crawler)
    _bookmark(repo, "u", "Classical", "Classical", "http://c1/")
    _bookmark(repo, "u", "Classical", "Classical", "http://c2/")
    _bookmark(repo, "u", "Jazz", "Jazz", "http://j1/")
    _bookmark(repo, "u", "Jazz", "Jazz", "http://j2/")
    repo.upsert_page("http://never-fetched/", now=0.0)
    repo.record_visit_batch([dict(
        user_id="u", url="http://never-fetched/", at=1.0,
        session_id=1, referrer=None, archive_mode=ARCHIVE_COMMUNITY)])
    assert clf.run_once() == 0
    visit = repo.db.table("visits").select()[0]
    assert visit["topic_folder"] is None  # left pending, not misfiled


def test_classifier_guess_replacement(repo, crawler):
    vec = PageVectorizer(repo)
    clf = ClassifierDaemon(repo, vec)
    clf.RETRAIN_AFTER = 1
    _crawl_all(repo, crawler)
    cl = _bookmark(repo, "u", "Classical", "Classical", "http://c1/")
    _bookmark(repo, "u", "Classical", "Classical", "http://c2/")
    jz = _bookmark(repo, "u", "Jazz", "Jazz", "http://j1/")
    _bookmark(repo, "u", "Jazz", "Jazz", "http://j2/")
    repo.record_visit_batch([dict(
        user_id="u", url="http://c3/", at=1.0, session_id=1, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])
    clf.run_once()
    # Same page classified again after the user corrected supervision:
    # old guess must be replaced, not duplicated.
    repo.record_visit_batch([dict(
        user_id="u", url="http://c3/", at=2.0, session_id=2, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])
    clf.run_once()
    guesses = [
        r for r in repo.db.table("folder_pages").select({"url": "http://c3/"})
        if r["source"] == ASSOC_GUESS
    ]
    assert len(guesses) == 1


def _filed_folder(lurker_visits: int) -> str | None:
    """Where the classifier files one new ``user01`` visit after a user
    with no folders (so no model) has sent *lurker_visits* visits."""
    workload = build_workload(seed=23, num_users=4, days=6, pages_per_leaf=6)
    system = MemexSystem.from_workload(workload)
    system.replay(workload.events)
    server = system.server
    server.process_background_work()
    urls = sorted(workload.corpus.pages)
    if lurker_visits:
        lurker = system.register_user("lurker")
        for i in range(lurker_visits):
            lurker.record_visit(urls[i % len(urls)], at=server.now + 1.0)
        server.process_background_work()
    supervised = {
        row["url"] for row in server.repo.db.table("folder_pages").scan()
        if row["folder_id"].startswith("user01:")
    }
    url = next(u for u in urls if u not in supervised)
    system.connect("user01").record_visit(url, at=server.now + 1.0)
    server.process_background_work()
    last = server.repo.db.table("visits").select(
        {"user_id": "user01"}, order_by="visit_id")[-1]
    assert last["url"] == url
    system.close()
    return last["topic_folder"]


def test_visits_no_model_will_file_do_not_starve_everyone_else():
    """More than a run's window of visits from a user the classifier
    cannot serve must not keep later visits of other users unfiled."""
    unstarved = _filed_folder(0)
    assert unstarved is not None and unstarved.startswith("user01:")
    assert _filed_folder(300) == unstarved


def test_link_graph_materialization(repo, crawler):
    _crawl_all(repo, crawler)
    graph = link_graph(repo)
    assert "http://c2/" in graph.successors("http://c1/")
    assert "http://front/" in graph.predecessors("http://c1/")
    assert len(graph.nodes()) == len(repo.db.table("pages"))


def test_theme_daemon_builds_taxonomy(repo, crawler):
    vec = PageVectorizer(repo)
    themes = ThemeDaemon(repo, vec)
    themes.REBUILD_AFTER = 1
    _crawl_all(repo, crawler)
    assert themes.run_once() == 0  # no folders yet
    repo.add_user("v", now=0.0)
    _bookmark(repo, "u", "Classical", "Classical", "http://c1/")
    _bookmark(repo, "u", "Classical", "Classical", "http://c2/")
    _bookmark(repo, "v", "Symphonies", "Symphonies", "http://c2/")
    _bookmark(repo, "v", "Symphonies", "Symphonies", "http://c3/")
    _bookmark(repo, "u", "Jazz", "Jazz", "http://j1/")
    _bookmark(repo, "u", "Jazz", "Jazz", "http://j2/")
    done = themes.run_once()
    assert done == 3  # three folder documents
    assert themes.taxonomy is not None
    assert themes.rebuild_count == 1
    # No new supervision -> no rebuild.
    assert themes.run_once() == 0


def _themes_over_two_folders(
        repo, crawler, rebuild_after=ThemeDaemon.REBUILD_AFTER):
    vec = PageVectorizer(repo)
    _crawl_all(repo, crawler)
    for url in PAGES:
        vec.vector(url)  # as the indexer does: the vocabulary holds every page
    themes = ThemeDaemon(repo, vec)
    themes.REBUILD_AFTER = rebuild_after
    _bookmark(repo, "u", "Classical", "Classical", "http://c1/")
    _bookmark(repo, "u", "Classical", "Classical", "http://c2/")
    _bookmark(repo, "u", "Jazz", "Jazz", "http://j1/")
    _bookmark(repo, "u", "Jazz", "Jazz", "http://j2/")
    assert themes.run_once() == 2  # the first taxonomy is built at once
    return themes, vec


def test_theme_daemon_batches_while_bookmarks_arrive_and_catches_up_after(repo, crawler):
    themes, _vec = _themes_over_two_folders(repo, crawler)  # REBUILD_AFTER = 10
    _bookmark(repo, "u", "Classical", "Classical", "http://c3/")
    assert themes.run_once() == 0      # moved since the last run: wait
    _bookmark(repo, "u", "Jazz", "Jazz", "http://j3/")
    assert themes.run_once() == 0      # still moving
    assert themes.run_once() == 2      # unchanged since the last run: catch up
    assert themes.rebuild_count == 2
    assert themes.run_once() == 0      # nothing new


def test_theme_daemon_rebuilds_at_once_after_enough_new_bookmarks(repo, crawler):
    themes, _vec = _themes_over_two_folders(repo, crawler, rebuild_after=2)
    _bookmark(repo, "u", "Classical", "Classical", "http://c3/")
    _bookmark(repo, "u", "Jazz", "Jazz", "http://j3/")
    assert themes.run_once() == 2
    assert themes.rebuild_count == 2


def test_theme_daemon_follows_the_vocabulary(repo, crawler):
    """IDF weights and labels come from the shared vocabulary, so a page
    indexed after the taxonomy was built leaves it behind too."""
    themes, vec = _themes_over_two_folders(repo, crawler)
    repo.upsert_page("http://new/", title="New", text="opera aria soprano", now=5.0)
    assert vec.vector("http://new/") is not None
    assert themes.run_once() == 0
    assert themes.run_once() == 2
    assert themes.rebuild_count == 2


def test_discovery_daemon_ranks_resources(repo, crawler):
    from repro.mining.themes import ThemeDiscovery
    vec = PageVectorizer(repo)
    themes = ThemeDaemon(repo, vec)
    themes.REBUILD_AFTER = 1
    themes.discovery = ThemeDiscovery(min_split_folders=2, cohesion_threshold=0.9)
    discovery = DiscoveryDaemon(
        repo, vec, themes, crawler=crawler, clock=lambda: 200.0)
    discovery.PER_THEME = 5
    _crawl_all(repo, crawler)
    assert discovery.run_once() == 0  # no taxonomy yet
    repo.add_user("v", now=0.0)
    _bookmark(repo, "u", "Classical", "Classical", "http://c1/")
    _bookmark(repo, "u", "Classical", "Classical", "http://c2/")
    _bookmark(repo, "v", "Jazz", "Jazz", "http://j1/")
    _bookmark(repo, "v", "Jazz", "Jazz", "http://j2/")
    themes.run_once()
    produced = discovery.run_once()
    assert produced > 0
    # Find the jazz-like theme and check its resources are jazz pages.
    taxonomy = themes.taxonomy
    jazz_theme = next(
        t for t in taxonomy.leaves()
        if any("Jazz" in p for _, p in t.folders)
    )
    urls = [r.url for r in discovery.for_theme(jazz_theme.theme_id)]
    assert urls
    assert all("j" in u or u == "http://front/" for u in urls[:2])
    # Recomputation is skipped when nothing changed.
    assert discovery.run_once() == 0


def test_vectorizer_caches_a_pages_vector(repo, crawler):
    vec = PageVectorizer(repo)
    assert vec.vector("http://c1/") is None  # not fetched yet
    _crawl_all(repo, crawler)
    v1 = vec.vector("http://c1/")
    assert v1
    assert vec.vector("http://c1/") is v1  # cached
    assert vec.tfidf_vector("http://c1/")
    assert vec.tfidf_vector("http://nowhere/") is None


def test_two_threads_missing_on_one_page_count_it_once(repo, crawler, monkeypatch):
    # A servlet thread and a daemon both miss on the same url: the
    # stand-in parks both inside the miss before either goes on.
    _crawl_all(repo, crawler)
    vec = PageVectorizer(repo)
    vec.vector("http://c2/")
    docs_before = vec.vocab.num_docs
    both_inside = threading.Barrier(2, timeout=10)
    page_text = repo.page_text

    def parked_page_text(url):
        both_inside.wait()
        return page_text(url)

    monkeypatch.setattr(repo, "page_text", parked_page_text)
    got = []
    threads = [
        threading.Thread(target=lambda: got.append(vec.vector("http://c1/")))
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 2 and got[0] is got[1] and got[0]
    assert vec.vocab.num_docs == docs_before + 1


def _parameters(cls):
    return [
        (name, "required" if p.default is p.empty else "default")
        for name, p in inspect.signature(cls).parameters.items()
    ]


def test_the_mining_fleet_takes_only_its_injection_points():
    """Tuning values the server never varies are class constants; what a
    constructor takes is what gets injected: stores, collaborators, the
    clock and the observability hooks."""
    assert _parameters(PageVectorizer) == [("repo", "required")]
    assert _parameters(CrawlerDaemon) == [
        ("repo", "required"), ("fetch", "required"),
        ("clock", "default"), ("tracer", "default"), ("log", "default")]
    assert _parameters(IndexerDaemon) == [
        ("repo", "required"), ("index", "required"),
        ("vectorizer", "required"), ("tracer", "default"), ("log", "default")]
    assert _parameters(ClassifierDaemon) == [
        ("repo", "required"), ("vectorizer", "required"),
        ("clock", "default"), ("tracer", "default"), ("log", "default")]
    assert _parameters(ThemeDaemon) == [
        ("repo", "required"), ("vectorizer", "required")]
    assert _parameters(DiscoveryDaemon) == [
        ("repo", "required"), ("vectorizer", "required"),
        ("themes", "required"), ("crawler", "required"), ("clock", "default")]
    assert _parameters(CoVisitMinerDaemon) == [
        ("repo", "required"), ("clock", "default")]
    assert _parameters(DenseIndexDaemon) == [
        ("repo", "required"), ("vectorizer", "required"),
        ("index", "required")]
    assert _parameters(DaemonScheduler) == [
        ("metrics", "default"), ("tracer", "default"), ("log", "default")]
    assert _parameters(MemexServer) == [
        ("fetch", "required"), ("root", "default"), ("sync", "default"),
        ("metrics", "default"), ("tracer", "default")]


def test_a_guess_that_meets_the_pages_filing_still_bumps_the_stamps():
    """A correction moved *url* to ``u:B`` and left the classifier's guess
    in ``u:A``; guessing ``u:B`` drops that guess and files nothing new,
    in one commit that moves ``assocs`` and not ``u``'s engagement (a
    theme profile reads no guess)."""
    metrics = MetricsRegistry()
    repo = MemexRepository(metrics=metrics)
    repo.add_user("u", now=0.0)
    url = "http://c3/"
    with repo.edit(1.0) as edit:
        edit.guess(edit.folder("u", "A"), url, 0.4)
    with repo.edit(2.0) as edit:
        edit.correct(edit.folder("u", "B"), url)
    assert (repo.stamps.assocs, repo.stamps.engagement) == (2, {"u": 1})
    commits = metrics.counter_value("storage.relational.commits")
    with repo.edit(3.0) as edit:
        edit.guess("u:B", url, 0.9)
    filings = repo.db.table("folder_pages").select({"url": url})
    assert [(r["folder_id"], r["source"]) for r in filings] \
        == [("u:B", ASSOC_CORRECTION)]
    assert (repo.stamps.assocs, repo.stamps.engagement) == (3, {"u": 1})
    assert metrics.counter_value("storage.relational.commits") - commits == 1
    repo.close()


def test_a_new_guess_replaces_the_owners_old_one_in_one_commit():
    metrics = MetricsRegistry()
    repo = MemexRepository(metrics=metrics)
    repo.add_user("u", now=0.0)
    repo.add_user("v", now=0.0)
    url = "http://c3/"
    with repo.edit(1.0) as edit:
        edit.folder("u", "B")
        edit.guess(edit.folder("u", "A"), url, 0.4)
        edit.guess(edit.folder("v", "A"), url, 0.4)
    stamps = repo.stamps.assocs, dict(repo.stamps.engagement)
    commits = metrics.counter_value("storage.relational.commits")
    with repo.edit(3.0) as edit:
        edit.guess("u:B", url, 0.9)
    filings = repo.db.table("folder_pages").select({"url": url})
    assert [(r["folder_id"], r["confidence"]) for r in filings] \
        == [("v:A", 0.4), ("u:B", 0.9)]           # v's guess is not u's
    assert repo.stamps.assocs == stamps[0] + 2
    assert repo.stamps.engagement == stamps[1] == {}
    assert metrics.counter_value("storage.relational.commits") - commits == 1
    with repo.edit(4.0) as edit:
        edit.guess("u:B", url, 0.7)                # already filed
    assert repo.stamps.assocs == stamps[0] + 2
    assert metrics.counter_value("storage.relational.commits") - commits == 1
    repo.close()


def test_a_folder_move_rebuilds_the_taxonomy_a_restart_would_build():
    """Moving bookmarks between folders leaves the number of filings as
    it was; the taxonomy must follow the move all the same, to the one a
    from-scratch build (what a restarted server serves) gives."""
    workload = build_workload(seed=11, num_users=6, days=7, pages_per_leaf=10)
    system = MemexSystem.from_workload(workload)
    system.replay(workload.events)
    server = system.server
    try:
        server.process_background_work()
        themes = server.themes
        rebuilt = themes.rebuild_count
        rows = server.repo.db.table("folder_pages").select(
            {"folder_id": "user01:Networking"})
        urls = sorted(r["url"] for r in rows if r["source"] != ASSOC_GUESS)
        moved = [u for u in dict.fromkeys(urls) if urls.count(u) == 1]
        assert len(moved) >= 5
        for url in moved:
            out = server.registry.dispatch({
                "servlet": "folder_move", "user_id": "user01", "url": url,
                "from_folder": "Networking", "to_folder": "Cycling stuff"})
            assert out["removed"] == 1
        server.process_background_work()
        assert themes.rebuild_count > rebuilt
        request = {"servlet": "themes_get", "user_id": "user01"}
        served = server.registry.dispatch(request)
        themes.taxonomy = None
        themes.run_once()
        assert server.registry.dispatch(request) == served
    finally:
        server.close()
