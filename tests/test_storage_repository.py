"""Tests for the two-store repository façade."""

import pytest

from repro.errors import SchemaError, StorageError
from repro.storage import Namespace
from repro.storage.codec import encode
from repro.storage.repository import MemexRepository
from repro.storage.schema import (
    ARCHIVE_COMMUNITY,
    ARCHIVE_PRIVATE,
    ASSOC_BOOKMARK,
    ASSOC_CORRECTION,
    ASSOC_GUESS,
)


@pytest.fixture
def repo():
    r = MemexRepository()
    yield r
    r.close()


def _visit(repo, url, at=0.0):
    return repo.record_visit_batch([dict(
        user_id="u", url=url, at=at, session_id=1, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])[0]


def test_ids_are_monotone_per_table(repo):
    assert [_visit(repo, f"http://p{i}/") for i in range(3)] == [1, 2, 3]
    assert _visit(repo, "http://p3/") == 4
    assert repo.add_link("http://p0/", "http://p1/", now=0.0) == 1


def test_ids_persist(tmp_path):
    with MemexRepository(tmp_path / "repo") as repo:
        assert _visit(repo, "http://a/") == 1
        assert _visit(repo, "http://b/") == 2
    with MemexRepository(tmp_path / "repo") as repo:
        assert _visit(repo, "http://c/") == 3


@pytest.mark.parametrize("stale", [1, 100])
def test_a_data_dir_with_seq_keys_takes_its_ids_from_the_catalog(
    tmp_path, stale,
):
    """A data dir written while ids were counted in ``terms.kv`` keeps
    ``_seq`` keys there, behind the catalog (1) or ahead of it (100, ids
    of transactions that never committed); both are ignored."""
    with MemexRepository(tmp_path) as repo:
        for i in range(3):
            _visit(repo, f"http://p{i}/")
            repo.add_link("http://p0/", f"http://p{i}/", now=0.0)
            with repo.edit(0.0) as edit:
                edit.bookmark(edit.folder("u", "F"), f"http://p{i}/")
        Namespace(repo.kv, "_seq").put_many([
            (name, encode(stale)) for name in (b"visits", b"links", b"assocs")
        ])
    with MemexRepository(tmp_path) as repo:
        assert _visit(repo, "http://p3/") == 4
        assert repo.add_link("http://p3/", "http://p0/", now=1.0) == 4
        with repo.edit(1.0) as edit:
            assert edit.bookmark("u:F", "http://p3/") == 4
        assert Namespace(repo.kv, "_seq").get(b"visits") == encode(stale)


def test_data_dir_of_the_removed_lsm_engine_is_refused(tmp_path):
    """A root written under the removed engine must not open as a
    populated catalog over an empty term store."""
    (tmp_path / "terms.lsm").mkdir()
    with pytest.raises(StorageError, match="removed 'lsm' storage engine"):
        MemexRepository(tmp_path)
    assert not (tmp_path / "terms.kv").exists()


def test_user_lifecycle(repo):
    repo.add_user("alice", community="dbgroup", now=1.0)
    user = repo.get_user("alice")
    assert user["community"] == "dbgroup"
    assert user["archive_mode"] == ARCHIVE_COMMUNITY
    repo.set_archive_mode("alice", ARCHIVE_PRIVATE)
    assert repo.get_user("alice")["archive_mode"] == ARCHIVE_PRIVATE
    with pytest.raises(SchemaError):
        repo.set_archive_mode("alice", "loud")
    with pytest.raises(SchemaError):
        repo.add_user("bob", archive_mode="loud")


def test_upsert_page_create_then_update(repo):
    assert repo.upsert_page("http://x/", title="X", text="hello world", now=1.0)
    assert not repo.upsert_page("http://x/", now=2.0)
    page = repo.db.table("pages").get("http://x/")
    assert page["first_seen"] == 1.0
    assert page["last_seen"] == 2.0
    assert page["fetched"] is True
    assert repo.page_text("http://x/") == "hello world"


def test_page_titles_follow_the_urls_asked(repo):
    repo.upsert_page("http://a/", title="A", text="a", now=1.0)
    repo.upsert_page("http://b/", now=1.0)
    assert repo.page_titles(["http://b/", "http://ghost/", "http://a/"]) == [
        None, None, "A"]


def test_upsert_unfetched_page(repo):
    repo.upsert_page("http://y/", now=1.0)
    page = repo.db.table("pages").get("http://y/")
    assert page["fetched"] is False
    assert repo.page_text("http://y/") is None


def test_content_hash_changes_with_text(repo):
    repo.upsert_page("http://x/", text="v1", now=1.0)
    h1 = repo.db.table("pages").get("http://x/")["content_hash"]
    repo.upsert_page("http://x/", text="v2", now=2.0)
    h2 = repo.db.table("pages").get("http://x/")["content_hash"]
    assert h1 != h2


def test_links(repo):
    repo.upsert_page("a", now=0.0)
    repo.upsert_page("b", now=0.0)
    repo.add_link("a", "b", now=0.0)
    repo.add_link("a", "c", now=0.0)
    repo.add_link("b", "a", now=0.0)
    assert sorted(repo.out_links("a")) == ["b", "c"]


def test_visits_and_classification(repo):
    repo.add_user("u", now=0.0)
    vid = repo.record_visit_batch([dict(
        user_id="u", url="http://x/", at=5.0, session_id=1, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])[0]
    repo.record_visit_batch([dict(
        user_id="u", url="http://y/", at=9.0,
        session_id=1, referrer="http://x/", archive_mode=ARCHIVE_PRIVATE)])
    assert len(repo.user_visits("u")) == 2
    assert len(repo.user_visits("u", since=6.0)) == 1
    assert len(repo.user_visits("u", until=6.0)) == 1
    public = repo.community_visits()
    assert [v["visit_id"] for v in public] == [vid]
    assert repo.visited_urls("u") == {"http://x/", "http://y/"}
    assert repo.visited_urls("nobody") == set()
    assert repo.visited_urls() == {"http://x/"}
    with repo.edit(10.0) as edit:
        edit.label(vid, "u:Music", 0.9)
    assert repo.db.table("visits").get(vid)["topic_folder"] == "u:Music"
    assert repo.stamps.classifications == 1


def test_folders_and_associations(repo):
    with repo.edit(1.0) as edit:
        jazz = edit.folder("u", "Music/Jazz")
        edit.bookmark(jazz, "http://jazz/")
        edit.guess(jazz, "http://maybe/", 0.4)
    assert jazz == "u:Music/Jazz"
    assert sorted(
        (f["folder_id"], f["name"], f["parent"]) for f in repo.user_folders("u")
    ) == [("u:Music", "Music", None), ("u:Music/Jazz", "Jazz", "u:Music")]
    pages = repo.folder_pages("u:Music/Jazz")
    assert len(pages) == 2
    only_bm = repo.folder_pages("u:Music/Jazz", sources=(ASSOC_BOOKMARK,))
    assert [p["url"] for p in only_bm] == ["http://jazz/"]
    assert len(repo.db.table("folder_pages").select({"url": "http://jazz/"})) == 1
    assert repo.db.table("pages").get("http://jazz/")["last_seen"] == 1.0
    assert repo.db.table("pages").get("http://maybe/") is None
    with pytest.raises(ValueError, match="empty folder path"):
        with repo.edit(2.0) as edit:
            edit.folder("u", "//")


def test_dissociate(repo):
    with repo.edit(0.0) as edit:
        f, g = edit.folder("u", "F"), edit.folder("u", "G")
        edit.guess(g, "http://a/", 0.4)
        edit.correct(f, "http://a/")
        edit.correct(f, "http://a/")
    with repo.edit(1.0) as edit:
        assert edit.unfile(f, "http://a/") == 1
        assert edit.unfile(f, "http://a/") == 0
        assert edit.drop_guesses("v", "http://a/") == 0
        assert edit.drop_guesses("u", "http://a/") == 1
    assert repo.db.table("folder_pages").select({"url": "http://a/"}) == []


def test_a_repeat_bookmark_files_nothing(repo):
    """A folder that already files a page deliberately files it once:
    bookmarking it there again, in a later edit or the same one, adds no
    row, moves no filing stamp and answers with the filing's id."""
    with repo.edit(1.0) as edit:
        jazz, blues = edit.folder("u", "Jazz"), edit.folder("u", "Blues")
        first = edit.bookmark(jazz, "http://p/")
        edit.correct(blues, "http://q/")
    filings = repo.stamps.filings
    with repo.edit(2.0) as edit:
        assert edit.bookmark(jazz, "http://p/") == first
        assert edit.bookmark(jazz, "http://p/") == first
        edit.bookmark(blues, "http://q/")
    assert repo.stamps.filings == filings
    with repo.edit(3.0) as edit:
        other = edit.bookmark(blues, "http://p/")
        assert edit.bookmark(blues, "http://p/") == other != first
    assert sorted(
        (r["folder_id"], r["url"]) for r in repo.db.table("folder_pages").scan()
    ) == [("u:Blues", "http://p/"), ("u:Blues", "http://q/"),
          ("u:Jazz", "http://p/")]
    assert repo.stamps.filings == filings + 1


def test_a_repeat_correction_files_nothing(repo):
    """A correction into a folder that already files the page
    deliberately — in the same edit or a later one — adds no row, moves
    no filing stamp and answers with that filing's id."""
    with repo.edit(1.0) as edit:
        jazz = edit.folder("u", "Jazz")
        bookmarked = edit.bookmark(jazz, "http://p/")
        assert edit.correct(jazz, "http://p/") == bookmarked
        corrected = edit.correct(jazz, "http://q/")
        assert edit.correct(jazz, "http://q/") == corrected
    filings = repo.stamps.filings
    with repo.edit(2.0) as edit:
        assert edit.correct(jazz, "http://p/") == bookmarked
        assert edit.correct(jazz, "http://q/") == corrected
    assert repo.stamps.filings == filings
    assert sorted(
        (r["url"], r["source"]) for r in repo.db.table("folder_pages").scan()
    ) == [("http://p/", ASSOC_BOOKMARK), ("http://q/", ASSOC_CORRECTION)]


def _guess_after(padding):
    """Carol's corrected page and a guess for it in another folder, filed
    after *padding* filings of other pages (which move the ids); then a
    guess into the corrected folder.  The filings of the page left."""
    repo = MemexRepository()
    with repo.edit(1.0) as edit:
        mine, other = edit.folder("carol", "Mine"), edit.folder("carol", "Other")
        for i in range(padding[0]):
            edit.bookmark(other, f"http://pad/{i}")
        edit.correct(mine, "http://page/")
    with repo.edit(2.0) as edit:
        for i in range(padding[1]):
            edit.bookmark(other, f"http://pad/more-{i}")
        edit.guess(other, "http://page/", 0.4)
    with repo.edit(3.0) as edit:
        edit.guess(mine, "http://page/", 0.9)
    left = sorted((r["folder_id"], r["source"])
                  for r in repo.db.table("folder_pages").select({"url": "http://page/"}))
    repo.close()
    return left


def test_filings_are_walked_in_assoc_id_order_whatever_the_ids():
    """A guess walks a page's filings oldest first, so which guesses it
    drops does not depend on the ids' hash order: the older correction
    in the guessed folder ends the walk before the newer guess."""
    assert _guess_after((0, 0)) == _guess_after((2, 4)) == [
        ("carol:Mine", ASSOC_CORRECTION), ("carol:Other", ASSOC_GUESS)]


def test_an_edit_reads_what_it_has_staged(repo):
    """Every read of an edit sees its own writes: a folder staged once
    is created once, a filing staged and unfiled in one edit is never
    written, and a guess where the page is already filed is a no-op."""
    with repo.edit(0.0) as edit:
        assert edit.folder("u", "A/B") == edit.folder("u", "/A//B/")
        a = edit.folder("u", "A")
        edit.correct(a, "http://p/")
        assert edit.unfile(a, "http://p/") == 1
        edit.bookmark(a, "http://q/")
        edit.guess(a, "http://q/", 0.9)
        edit.guess(edit.folder("u", "C"), "http://r/", 0.3)
        edit.guess(a, "http://r/", 0.8)
    assert sorted(f["folder_id"] for f in repo.user_folders("u")) == [
        "u:A", "u:A/B", "u:C"]
    assert sorted(
        (r["assoc_id"], r["folder_id"], r["url"], r["source"])
        for r in repo.db.table("folder_pages").scan()
    ) == [(2, "u:A", "http://q/", ASSOC_BOOKMARK),
          (4, "u:A", "http://r/", ASSOC_GUESS)]


def test_a_failed_edit_applies_nothing_and_moves_no_stamp(repo):
    """An exception inside the block, or at the commit itself, leaves
    every folder, filing and label as it was."""
    repo.add_user("u", now=0.0)
    vid, = repo.record_visit_batch([dict(
        user_id="u", url="http://x/", at=1.0, session_id=1, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])
    with repo.edit(1.0) as edit:
        edit.bookmark(edit.folder("u", "F"), "http://x/")
        edit.guess(edit.folder("u", "G"), "http://y/", 0.5)

    def snapshot():
        return ({name: sorted(map(repr, repo.db.table(name).scan()))
                 for name in ("folders", "folder_pages", "pages", "visits")},
                {slot: repr(getattr(repo.stamps, slot))
                 for slot in type(repo.stamps).__slots__})

    def write(edit):
        edit.unfile("u:F", "http://x/")
        edit.bookmark(edit.folder("u", "H/I"), "http://y/")
        edit.label(vid, "u:H/I", 1.0)

    before = snapshot()
    with pytest.raises(RuntimeError):
        with repo.edit(2.0) as edit:
            write(edit)
            raise RuntimeError("client went away")
    assert snapshot() == before

    def torn(txn):
        raise StorageError("disk full")

    real = repo.db._commit
    repo.db._commit = torn
    with pytest.raises(StorageError):
        with repo.edit(2.0) as edit:
            write(edit)
    repo.db._commit = real
    assert snapshot() == before
    with repo.edit(3.0) as edit:
        write(edit)
    assert snapshot() != before


def test_persistent_repository_roundtrip(tmp_path):
    with MemexRepository(tmp_path / "repo") as repo:
        repo.add_user("u", now=0.0)
        repo.upsert_page("http://x/", text="persisted text", now=1.0)
        repo.record_visit_batch([dict(
            user_id="u", url="http://x/", at=1.0, session_id=1, referrer=None,
            archive_mode=ARCHIVE_COMMUNITY)])
    with MemexRepository(tmp_path / "repo") as repo:
        assert repo.get_user("u") is not None
        assert repo.page_text("http://x/") == "persisted text"
        assert len(repo.user_visits("u")) == 1
