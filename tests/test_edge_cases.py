"""Edge-case sweep across subsystems: the inputs real deployments hit."""

import pytest

from repro.core import MemexSystem
from repro.core.archive import folder_id
from repro.core.memex import MemexServer
from repro.folders import BookmarkEntry, BookmarkNode, write_bookmarks
from repro.folders.importer import bookmarks_to_payload
from repro.folders.netscape import parse_bookmarks
from repro.server.daemons import FetchedPage
from repro.storage.relational import Column, Database
from repro.text.index import InvertedIndex
from repro.text.search import SearchEngine
from repro.text.tokenize import tokenize


# -- unicode and odd text ------------------------------------------------------

def test_unicode_page_text_survives_pipeline():
    pages = {
        "http://u/": FetchedPage(
            "http://u/", "Café Ümläut",
            "café music étude for orchestra — bientôt",
            (),
        ),
    }
    system = MemexSystem(MemexServer(lambda u: pages.get(u)))
    applet = system.register_user("u")
    applet.record_visit("http://u/", at=1.0)
    system.server.process_background_work()
    hits = applet.search("music orchestra")
    assert hits and hits[0]["url"] == "http://u/"
    assert system.server.repo.page_text("http://u/").startswith("café")


def test_tokenizer_handles_unicode_and_emptiness():
    assert tokenize("") == []
    assert tokenize("ééé — 中文") == []  # non-ascii words dropped
    assert tokenize("ascii café mix") != []


def test_unicode_folder_names_and_bookmark_roundtrip():
    leaf = BookmarkNode(name="Klassisch", bookmarks=[
        BookmarkEntry(url="http://x/", title="Bäch & Söhne")])
    root = BookmarkNode(name="", folders=[BookmarkNode(name="Musik", folders=[leaf])])
    again = bookmarks_to_payload(parse_bookmarks(write_bookmarks(root)))
    assert again == {"Musik": [], "Musik/Klassisch": [
        {"url": "http://x/", "title": "Bäch & Söhne", "added_at": 0.0}]}


# -- degenerate sizes --------------------------------------------------------------

def test_search_k_zero_and_negative():
    idx = InvertedIndex()
    idx.add_document("d", "music")
    engine = SearchEngine(idx)
    assert engine.search("music", k=0) == []


def test_empty_server_answers_everything_gracefully():
    system = MemexSystem(MemexServer(lambda u: None))
    applet = system.register_user("lonely")
    assert applet.search("anything") == []
    assert applet.themes() == []
    assert applet.similar_users() == []
    assert applet.recommendations() == []
    assert applet.bill(days=30)["lines"] == []
    assert applet.resources("anything") == []
    assert applet.interest_mates("anything") == []
    view = applet.trail_view("Nowhere")
    assert view["trail"]["nodes"] == []
    ctx = applet.context_view("Nowhere")
    assert ctx["found"] is False
    assert applet.popular_near_trail("Nowhere") == []
    system.server.process_background_work()  # daemons idle cleanly


def test_visit_to_dead_link_is_archived_but_never_indexed():
    system = MemexSystem(MemexServer(lambda u: None))  # everything 404s
    applet = system.register_user("u")
    applet.record_visit("http://gone/", at=1.0)
    system.server.process_background_work()
    repo = system.server.repo
    assert len(repo.user_visits("u")) == 1
    assert repo.db.table("pages").get("http://gone/")["fetched"] is False
    assert system.server.index.num_docs == 0
    assert system.server.crawler.dead_count == 1
    # The visit stays unclassified rather than misfiled.
    assert repo.user_visits("u")[0]["topic_folder"] is None


def test_same_url_bookmarked_by_many_users():
    page = FetchedPage("http://hot/", "Hot", "popular shared page content", ())
    system = MemexSystem(MemexServer(lambda u: page if u == "http://hot/" else None))
    for i in range(4):
        applet = system.register_user(f"u{i}")
        applet.bookmark("http://hot/", f"my folder {i}", at=float(i))
    system.server.process_background_work()
    rows = system.server.repo.db.table("folder_pages").select({"url": "http://hot/"})
    owners = {
        system.server.repo.db.table("folders").get(r["folder_id"])["owner"]
        for r in rows
    }
    assert owners == {f"u{i}" for i in range(4)}


def test_rebookmarking_same_folder_is_idempotent_per_gesture():
    page = FetchedPage("http://p/", "P", "content words here", ())
    system = MemexSystem(MemexServer(lambda u: page if u == "http://p/" else None))
    applet = system.register_user("u")
    applet.bookmark("http://p/", "F", at=1.0)
    applet.bookmark("http://p/", "F", at=2.0)
    rows = system.server.repo.folder_pages(
        folder_id("u", "F"),
    )
    # The second gesture files nothing: one association row, and the
    # folder view shows the URL once.
    urls = [r["url"] for r in rows]
    assert urls.count("http://p/") == 1
    view = applet.folder_view()
    f = next(f for f in view["folders"] if f["path"] == "F")
    assert [i["url"] for i in f["items"]] == ["http://p/"]


# -- relational edge cases ------------------------------------------------------------

def test_relational_aggregate_on_empty_table():
    db = Database()
    db.create_table("t", [Column("k", "int"), Column("g")], primary_key="k",
                    indexes=("g",))
    assert db.table("t").count() == 0
    assert db.table("t").count({"g": "x"}) == 0
    assert db.table("t").select() == []
    assert db.table("t").select({"g": "x"}, order_by="k") == []
    assert db.table("t").max_key(default=0) == 0


def test_relational_insert_many_empty_iterable():
    db = Database()
    db.create_table("t", [Column("k", "int")], primary_key="k")
    assert db.insert_many("t", []) == 0


def test_folder_path_with_repeated_separators():
    system = MemexSystem(MemexServer(lambda u: None))
    applet = system.register_user("u")
    applet.create_folder("A//B///C", at=0.0)
    paths = {f["path"] for f in applet.folder_view()["folders"]}
    assert "A/B/C" in paths
    assert "A/B" in paths


def test_very_long_page_text_indexes_fine():
    text = "compiler optimization " * 5000  # ~100k chars
    page = FetchedPage("http://big/", "Big", text, ())
    system = MemexSystem(MemexServer(lambda u: page if u == "http://big/" else None))
    applet = system.register_user("u")
    applet.record_visit("http://big/", at=1.0)
    system.server.process_background_work()
    hits = applet.search("compiler")
    assert hits[0]["url"] == "http://big/"
    assert hits[0]["snippet"]
