"""Tests for the simulated browser and applet basics."""

import pytest

from repro.client.browser import Browser
from repro.core import MemexSystem
from repro.errors import AuthError, MemexError
from repro.server.daemons import FetchedPage


def test_browser_navigation_and_history():
    b = Browser()
    taps = []
    b.add_listener(lambda url, ref, at: taps.append((url, ref)))
    b.navigate("http://a/", at=1.0)
    b.navigate("http://b/", at=2.0)
    b.navigate("http://c/", at=3.0)
    assert b.location == "http://c/"
    assert b.history() == ["http://a/", "http://b/", "http://c/"]
    assert taps == [
        ("http://a/", None), ("http://b/", "http://a/"), ("http://c/", "http://b/"),
    ]


def test_browser_back_forward():
    b = Browser()
    for url in ["http://a/", "http://b/", "http://c/"]:
        b.navigate(url)
    assert b.back() == "http://b/"
    assert b.back() == "http://a/"
    assert b.back() == "http://a/"  # bounded
    assert b.forward() == "http://b/"
    assert b.forward() == "http://c/"
    assert b.forward() == "http://c/"  # bounded


def test_browser_truncates_forward_history():
    b = Browser()
    for url in ["http://a/", "http://b/", "http://c/"]:
        b.navigate(url)
    b.back()
    b.navigate("http://d/")
    assert b.history() == ["http://a/", "http://b/", "http://d/"]
    assert b.forward() == "http://d/"


def test_browser_history_limit(monkeypatch):
    monkeypatch.setattr(Browser, "HISTORY_LIMIT", 3)
    b = Browser()
    for i in range(6):
        b.navigate(f"http://p{i}/")
    assert b.history() == ["http://p3/", "http://p4/", "http://p5/"]


def test_browser_clear_history():
    b = Browser()
    b.navigate("http://a/")
    b.navigate("http://b/")
    b.clear_history()
    assert b.history() == ["http://b/"]
    assert b.location == "http://b/"


def _tiny_system():
    from repro.core.memex import MemexServer
    pages = {
        "http://a/": FetchedPage("http://a/", "A", "alpha text content here", ()),
        "http://b/": FetchedPage("http://b/", "B", "beta text content here", ()),
    }
    return MemexSystem(MemexServer(lambda u: pages.get(u)))


def test_applet_requires_registration():
    system = _tiny_system()
    applet = system.connect("ghost")
    with pytest.raises(AuthError):
        applet.record_visit("http://a/", at=1.0)


def test_applet_archive_off_drops_locally():
    system = _tiny_system()
    applet = system.register_user("u")
    applet.set_archive_mode("off")
    assert applet.record_visit("http://a/", at=1.0) is False
    assert applet.dropped_events == 1
    applet.bookmark("http://a/", "F", at=2.0)
    assert applet.dropped_events == 2
    # Nothing reached the server.
    assert len(system.server.repo.db.table("visits")) == 0
    with pytest.raises(MemexError):
        applet.set_archive_mode("loud")


def test_applet_browser_tap_records_visits():
    system = _tiny_system()
    browser = Browser()
    applet = system.register_user("u")
    applet_b = system.connect("u", browser=browser)
    browser.navigate("http://a/", at=5.0)
    browser.navigate("http://b/", at=6.0)
    visits = system.server.repo.user_visits("u")
    assert [v["url"] for v in visits] == ["http://a/", "http://b/"]
    assert visits[1]["referrer"] == "http://a/"
    assert applet_b.session_id == 1


def test_applet_private_mode_hides_from_community():
    system = _tiny_system()
    alice = system.register_user("alice")
    alice.set_archive_mode("private")
    alice.record_visit("http://a/", at=1.0)
    repo = system.server.repo
    assert len(repo.user_visits("alice")) == 1
    assert repo.community_visits() == []


def test_applet_encrypted_session():
    system = _tiny_system()
    applet = system.register_user("spy", cipher_key=b"hush")
    applet.record_visit("http://a/", at=1.0)
    assert len(system.server.repo.user_visits("spy")) == 1


def test_applet_new_session():
    system = _tiny_system()
    applet = system.register_user("u")
    assert applet.new_session() == 2
    applet.record_visit("http://a/", at=1.0)
    assert system.server.repo.user_visits("u")[0]["session_id"] == 2


def test_applet_import_bookmarks():
    system = _tiny_system()
    applet = system.register_user("u")
    count = applet.import_bookmarks({
        "Music": [{"url": "http://a/", "title": "A"}],
        "Work/Papers": [{"url": "http://b/"}],
    }, at=3.0)
    assert count == 2
    view = applet.folder_view()
    paths = {f["path"] for f in view["folders"]}
    assert {"Music", "Work", "Work/Papers"} <= paths
    items = {
        i["url"] for f in view["folders"] for i in f["items"]
    }
    assert items == {"http://a/", "http://b/"}
