"""Tests for Netscape / Explorer bookmark import-export."""

import pytest

from repro.core import MemexSystem
from repro.core.memex import MemexServer
from repro.errors import BookmarkFormatError
from repro.folders import (
    BookmarkEntry,
    BookmarkNode,
    export_explorer_favorites,
    export_netscape_file,
    import_netscape_file,
    write_bookmarks,
)
from repro.folders.explorer import (
    export_favorites,
    import_favorites,
    parse_url_file,
    write_url_file,
)
from repro.folders.importer import bookmarks_to_payload, folders_to_bookmarks
from repro.folders.netscape import parse_bookmarks

NETSCAPE_SAMPLE = """<!DOCTYPE NETSCAPE-Bookmark-file-1>
<!-- This is an automatically generated file. -->
<TITLE>Bookmarks</TITLE>
<H1>Bookmarks</H1>
<DL><p>
    <DT><A HREF="http://top.example/" ADD_DATE="940000000">Top-level link</A>
    <DT><H3 ADD_DATE="940000001">Music</H3>
    <DL><p>
        <DT><A HREF="http://bach.example/" ADD_DATE="940000002">Bach &amp; Sons</A>
        <DT><H3>Classical</H3>
        <DL><p>
            <DT><A HREF="http://mozart.example/">Mozart</A>
        </DL><p>
    </DL><p>
    <DT><H3>Work</H3>
    <DL><p>
        <DT><A HREF="http://vldb.example/">VLDB</A>
    </DL><p>
</DL><p>
"""


def test_parse_netscape_structure():
    root = parse_bookmarks(NETSCAPE_SAMPLE)
    assert [b.url for b in root.bookmarks] == ["http://top.example/"]
    assert [f.name for f in root.folders] == ["Music", "Work"]
    music = root.folders[0]
    assert music.add_date == 940000001
    assert music.bookmarks[0].title == "Bach & Sons"
    assert music.bookmarks[0].add_date == 940000002
    classical = music.folders[0]
    assert classical.name == "Classical"
    assert classical.bookmarks[0].url == "http://mozart.example/"
    assert root.total_bookmarks() == 4


def test_parse_tolerates_tag_soup():
    messy = """<dl><P>
    <dt><h3>Messy</H3>
    <DL>
      <dt><a href='http://x/' Add_Date=123>X</a>
      <dt><a>no href, skipped</a>
    </dl>
    </DL>"""
    root = parse_bookmarks(messy)
    assert root.folders[0].name == "Messy"
    assert root.folders[0].bookmarks[0].url == "http://x/"
    assert root.folders[0].bookmarks[0].add_date == 123
    assert root.total_bookmarks() == 1


def test_parse_rejects_non_bookmark_files():
    with pytest.raises(BookmarkFormatError):
        parse_bookmarks("just some <b>random</b> html")


def test_netscape_roundtrip():
    root = parse_bookmarks(NETSCAPE_SAMPLE)
    text = write_bookmarks(root)
    again = parse_bookmarks(text)
    assert again.total_bookmarks() == root.total_bookmarks()
    assert [f.name for f in again.folders] == ["Music", "Work"]
    assert again.folders[0].folders[0].bookmarks[0].url == "http://mozart.example/"
    # Escaping survives.
    assert again.folders[0].bookmarks[0].title == "Bach & Sons"


def _urls_by_path(payload):
    return {path: sorted(e["url"] for e in entries) for path, entries in payload.items()}


def _view_of(payload):
    """The ``folders_get`` shape of an import payload: every item filed."""
    return {"folders": [
        {"path": path, "items": [{"url": e["url"], "guess": False} for e in entries]}
        for path, entries in payload.items()]}


def test_bookmarks_to_payload_and_back():
    payload = bookmarks_to_payload(parse_bookmarks(NETSCAPE_SAMPLE))
    # Loose top-level bookmarks go to 'Imported'; an empty folder is kept.
    assert _urls_by_path(payload) == {
        "Imported": ["http://top.example/"],
        "Music": ["http://bach.example/"],
        "Music/Classical": ["http://mozart.example/"],
        "Work": ["http://vldb.example/"],
    }
    assert payload["Music"] == [{"url": "http://bach.example/",
                                 "title": "Bach & Sons", "added_at": 940000002}]
    back = folders_to_bookmarks(_view_of(payload))
    assert back.total_bookmarks() == 4
    assert _urls_by_path(bookmarks_to_payload(back)) == _urls_by_path(payload)


def test_folders_to_bookmarks_excludes_guesses():
    view = {"folders": [{"path": "F", "items": [
        {"url": "http://sure/", "guess": False},
        {"url": "http://maybe/", "guess": True}]}]}
    out = folders_to_bookmarks(view)
    assert out.total_bookmarks() == 1


def test_a_bookmark_file_round_trips_through_the_served_folder_tab(tmp_path):
    """§2: bookmarks imported from Netscape into the topic view, and
    exported back to both browsers from what the server serves."""
    path = tmp_path / "bookmarks.html"
    path.write_text(NETSCAPE_SAMPLE, encoding="utf-8")
    payload = import_netscape_file(path)
    with MemexSystem(MemexServer(lambda url: None)) as system:
        applet = system.register_user("alice")
        assert applet.import_bookmarks(payload) == 4
        served = applet.folder_view()
    assert [f["path"] for f in served["folders"]] == [
        "Imported", "Music", "Music/Classical", "Work"]
    export_netscape_file(served, tmp_path / "exported.html")
    assert export_explorer_favorites(served, tmp_path / "Favorites") == 4
    netscape = import_netscape_file(tmp_path / "exported.html")
    explorer = bookmarks_to_payload(import_favorites(tmp_path / "Favorites"))
    assert _urls_by_path(netscape) == _urls_by_path(explorer) == _urls_by_path(payload)


def test_netscape_file_roundtrip(tmp_path):
    path = tmp_path / "bookmarks.html"
    path.write_text(NETSCAPE_SAMPLE, encoding="utf-8")
    payload = import_netscape_file(path)
    assert sum(len(entries) for entries in payload.values()) == 4
    out = tmp_path / "exported.html"
    export_netscape_file(_view_of(payload), out)
    again = import_netscape_file(out)
    assert sum(len(entries) for entries in again.values()) == 4
    assert "Music/Classical" in again


# -- Explorer favorites --------------------------------------------------------

def test_url_file_roundtrip():
    text = write_url_file("http://example.com/page")
    assert parse_url_file(text) == "http://example.com/page"


def test_url_file_validation():
    with pytest.raises(BookmarkFormatError):
        parse_url_file("URL=http://no-section/")
    with pytest.raises(BookmarkFormatError):
        parse_url_file("[InternetShortcut]\nNothing=here")


def test_favorites_roundtrip(tmp_path):
    root = BookmarkNode(name="")
    root.bookmarks.append(BookmarkEntry(url="http://loose/", title="Loose"))
    music = BookmarkNode(name="Music")
    music.bookmarks.append(BookmarkEntry(url="http://bach/", title="Bach: Works"))
    nested = BookmarkNode(name="Classical")
    nested.bookmarks.append(BookmarkEntry(url="http://mozart/", title="Mozart"))
    music.folders.append(nested)
    root.folders.append(music)

    written = export_favorites(root, tmp_path / "fav")
    assert written == 3
    again = import_favorites(tmp_path / "fav")
    assert again.total_bookmarks() == 3
    assert [f.name for f in again.folders] == ["Music"]
    assert again.folders[0].folders[0].bookmarks[0].url == "http://mozart/"
    # Windows-hostile characters in titles were sanitized into filenames.
    titles = [b.title for b in again.folders[0].bookmarks]
    assert titles == ["Bach_ Works"]


def test_favorites_name_collisions(tmp_path):
    root = BookmarkNode(name="")
    root.bookmarks.append(BookmarkEntry(url="http://a/", title="Same"))
    root.bookmarks.append(BookmarkEntry(url="http://b/", title="Same"))
    assert export_favorites(root, tmp_path / "fav") == 2
    again = import_favorites(tmp_path / "fav")
    assert again.total_bookmarks() == 2
    assert {b.url for b in again.bookmarks} == {"http://a/", "http://b/"}


def test_favorites_skips_junk(tmp_path):
    fav = tmp_path / "fav"
    fav.mkdir()
    (fav / "good.url").write_text(write_url_file("http://good/"))
    (fav / "broken.url").write_text("not a shortcut at all")
    (fav / "desktop.ini").write_text("[junk]")
    root = import_favorites(fav)
    assert [b.url for b in root.bookmarks] == ["http://good/"]


def test_import_favorites_requires_directory(tmp_path):
    with pytest.raises(BookmarkFormatError):
        import_favorites(tmp_path / "missing")


def test_explorer_tree_integration(tmp_path):
    with MemexSystem(MemexServer(lambda url: None)) as system:
        applet = system.register_user("bob")
        applet.import_bookmarks({
            "Cycling/Routes": [{"url": "http://alps/", "title": "Alps"}],
            "Cycling": [{"url": "http://gear/", "title": "Gear"}],
        })
        served = applet.folder_view()
    count = export_explorer_favorites(served, tmp_path / "fav")
    assert count == 2
    back = bookmarks_to_payload(import_favorites(tmp_path / "fav"))
    assert "Cycling/Routes" in back
    assert {path for path, entries in back.items()
            if any(e["url"] == "http://alps/" for e in entries)} == {"Cycling/Routes"}
