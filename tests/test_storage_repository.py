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
        repo.add_folder("u:F", "u", "F", None, now=0.0)
        for i in range(3):
            _visit(repo, f"http://p{i}/")
            repo.add_link("http://p0/", f"http://p{i}/", now=0.0)
            repo.associate("u:F", f"http://p{i}/", ASSOC_BOOKMARK, now=0.0)
        Namespace(repo.kv, "_seq").put_many([
            (name, encode(stale)) for name in (b"visits", b"links", b"assocs")
        ])
    with MemexRepository(tmp_path) as repo:
        assert _visit(repo, "http://p3/") == 4
        assert repo.add_link("http://p3/", "http://p0/", now=1.0) == 4
        assert repo.associate(
            "u:F", "http://p3/", ASSOC_BOOKMARK, now=1.0) == 4
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
    repo.classify_visits([(vid, "u:Music", 0.9)])
    assert repo.db.table("visits").get(vid)["topic_folder"] == "u:Music"


def test_folders_and_associations(repo):
    repo.add_folder("u:Music", "u", "Music", None, now=0.0)
    repo.add_folder("u:Music/Jazz", "u", "Jazz", "u:Music", now=0.0)
    assert len(repo.user_folders("u")) == 2
    repo.associate("u:Music/Jazz", "http://jazz/", ASSOC_BOOKMARK, now=1.0)
    repo.associate("u:Music/Jazz", "http://maybe/", ASSOC_GUESS, confidence=0.4, now=2.0)
    pages = repo.folder_pages("u:Music/Jazz")
    assert len(pages) == 2
    only_bm = repo.folder_pages("u:Music/Jazz", sources=(ASSOC_BOOKMARK,))
    assert [p["url"] for p in only_bm] == ["http://jazz/"]
    assert len(repo.page_folders("http://jazz/")) == 1
    with pytest.raises(SchemaError):
        repo.associate("u:Music", "http://x/", "whim", now=0.0)


def test_dissociate(repo):
    repo.add_folder("u:F", "u", "F", None, now=0.0)
    repo.associate("u:F", "http://a/", ASSOC_BOOKMARK, now=0.0)
    repo.associate("u:F", "http://a/", ASSOC_GUESS, now=0.0)
    assert repo.dissociate("u:F", "http://a/", sources=(ASSOC_GUESS,)) == 1
    assert repo.dissociate("u:F", "http://a/") == 1
    assert repo.dissociate("u:F", "http://a/") == 0


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
