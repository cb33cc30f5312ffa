"""The term store's contract, through the ``open_engine`` front door:
point ops, ordered scans, persistence, compaction, namespaces.
"""

import random

import pytest

from repro.errors import KeyNotFound, StoreClosed
from repro.storage import KVStore, Namespace, open_engine


@pytest.fixture
def store():
    s = open_engine("btree")
    yield s
    s.close()


@pytest.fixture
def disk_store(tmp_path):
    s = open_engine("btree", tmp_path / "terms.kv")
    yield s
    s.close()


@pytest.mark.parametrize("name", ["lsm", "bogus"])
def test_only_btree_opens(name):
    with pytest.raises(ValueError, match="unknown storage engine"):
        open_engine(name)


def test_open_engine_returns_the_kvstore(store):
    assert isinstance(store, KVStore)
    assert store.engine_name == "btree"


def test_point_ops(store):
    store.put(b"a", b"1")
    store[b"b"] = b"2"
    assert store.get(b"a") == b"1"
    assert store[b"b"] == b"2"
    assert b"a" in store and b"missing" not in store
    assert store.get(b"missing") is None
    assert store.get(b"missing", b"dflt") == b"dflt"
    assert len(store) == 2
    store.put(b"a", b"1bis")          # overwrite does not grow the store
    assert len(store) == 2
    assert store.get(b"a") == b"1bis"
    with pytest.raises(KeyNotFound):
        store[b"missing"]
    with pytest.raises(TypeError):
        store.put("str", b"x")
    with pytest.raises(TypeError):
        store.put(b"x", "str")


def test_delete_and_discard(store):
    store.put(b"k", b"v")
    store.delete(b"k")
    assert b"k" not in store
    assert len(store) == 0
    with pytest.raises(KeyNotFound):
        store.delete(b"k")
    assert store.discard(b"k") is False
    store.put(b"k", b"v2")
    assert store.discard(b"k") is True
    assert len(store) == 0


def test_put_many_group_commit(store):
    n = store.put_many([(b"x", b"1"), (b"y", b"2"), (b"x", b"3")])
    assert n == 3
    assert store.get(b"x") == b"3"    # last duplicate wins
    assert len(store) == 2


def test_ordered_cursor_and_ranges(store):
    keys = [f"k{i:03d}".encode() for i in range(50)]
    shuffled = list(keys)
    random.Random(3).shuffle(shuffled)
    for k in shuffled:
        store.put(k, b"v" + k)
    assert [k for k, _ in store.cursor()] == keys
    assert store.keys() == keys
    got = [k for k, _ in store.cursor(b"k010", b"k020")]
    assert got == keys[10:20]


def test_prefix_scan(store):
    for k in (b"post\x00a", b"post\x00b", b"post\x01c", b"pot", b"q"):
        store.put(k, b"v")
    assert [k for k, _ in store.prefix(b"post\x00")] == [b"post\x00a", b"post\x00b"]
    assert [k for k, _ in store.prefix(b"post")] == [
        b"post\x00a", b"post\x00b", b"post\x01c",
    ]
    assert [k for k, _ in store.prefix(b"")] == store.keys()


def test_persistence_roundtrip(tmp_path):
    path = tmp_path / "terms.kv"
    with open_engine("btree", path) as s:
        s.put_many((f"k{i}".encode(), f"v{i}".encode()) for i in range(100))
        s.delete(b"k50")
    with open_engine("btree", path) as s:
        assert len(s) == 99
        assert s.get(b"k42") == b"v42"
        assert b"k50" not in s


def test_compact_preserves_contents(disk_store):
    for i in range(200):
        disk_store.put(f"k{i:03d}".encode(), b"v%d" % i)
    for i in range(0, 200, 2):
        disk_store.delete(f"k{i:03d}".encode())
    before = list(disk_store.cursor())
    disk_store.compact()
    assert list(disk_store.cursor()) == before
    assert len(disk_store) == 100


def test_closed_store_raises(store):
    store.put(b"k", b"v")
    store.close()
    with pytest.raises(StoreClosed):
        store.put(b"k2", b"v")
    store.close()  # idempotent


def test_stats_names_engine(disk_store):
    disk_store.put(b"k", b"v")
    stats = disk_store.stats()
    assert stats["engine"] == "btree"
    assert stats["live_keys"] == 1


def test_namespace_views_share_one_store(store):
    ns = Namespace(store, "table")
    other = Namespace(store, "other")
    ns.put(b"k", b"v")
    other.put(b"k", b"w")
    assert ns.get(b"k") == b"v"
    assert other[b"k"] == b"w"
    assert list(ns.items()) == [(b"k", b"v")]
    assert len(ns) == 1
    assert ns.clear() == 1
    assert other.get(b"k") == b"w"
