"""Stateful property-based tests: engines checked against simple models.

Hypothesis drives random operation sequences against the key-value store,
a relational table, and the folder tree, comparing every observable
result with an in-memory reference model — the classic way to shake out
index-maintenance and recovery bugs.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import DuplicateKey, KeyNotFound, NoSuchFolder
from repro.folders.tree import FolderTree
from repro.storage import KVStore
from repro.storage.relational import Column, Database

keys = st.binary(min_size=1, max_size=6)
values = st.binary(max_size=8)


class KVStoreMachine(RuleBasedStateMachine):
    """KVStore must behave exactly like a dict with sorted key listing."""

    def __init__(self):
        super().__init__()
        self.kv = KVStore()
        self.model: dict[bytes, bytes] = {}

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.kv.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def get(self, key):
        assert self.kv.get(key) == self.model.get(key)

    @rule(key=keys)
    def discard(self, key):
        assert self.kv.discard(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=keys)
    def delete_missing_raises(self, key):
        if key not in self.model:
            with pytest.raises(KeyNotFound):
                self.kv.delete(key)

    @rule(prefix=st.binary(max_size=3))
    def prefix_scan_matches(self, prefix):
        got = [(k, v) for k, v in self.kv.prefix(prefix)]
        want = sorted(
            (k, v) for k, v in self.model.items() if k.startswith(prefix)
        )
        assert got == want

    @invariant()
    def keys_sorted_and_complete(self):
        assert self.kv.keys() == sorted(self.model)
        assert len(self.kv) == len(self.model)


TestKVStoreMachine = KVStoreMachine.TestCase
TestKVStoreMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None,
)


class PersistentKVMachine(RuleBasedStateMachine):
    """Like KVStoreMachine but with random close/reopen cycles."""

    def __init__(self):
        super().__init__()
        import tempfile
        self.dir = tempfile.mkdtemp(prefix="kvprop-")
        self.path = f"{self.dir}/kv.log"
        self.kv = KVStore(self.path)
        self.model: dict[bytes, bytes] = {}

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.kv.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def discard(self, key):
        assert self.kv.discard(key) == (key in self.model)
        self.model.pop(key, None)

    @rule()
    def reopen(self):
        self.kv.close()
        self.kv = KVStore(self.path)

    @rule()
    def compact(self):
        self.kv.compact()

    @invariant()
    def matches_model(self):
        assert self.kv.keys() == sorted(self.model)
        for k, v in self.model.items():
            assert self.kv.get(k) == v

    def teardown(self):
        self.kv.close()
        import shutil
        shutil.rmtree(self.dir, ignore_errors=True)


TestPersistentKVMachine = PersistentKVMachine.TestCase
TestPersistentKVMachine.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None,
)


pks = st.integers(0, 25)
cities = st.sampled_from(["rome", "pune", "oslo", None])


class RelationalMachine(RuleBasedStateMachine):
    """One indexed table checked against a dict-of-rows model."""

    def __init__(self):
        super().__init__()
        self.db = Database()
        self.db.create_table(
            "t",
            [Column("pk", "int"), Column("city", nullable=True),
             Column("score", "int", nullable=True)],
            primary_key="pk",
            indexes=("city", "score"),
        )
        self.model: dict[int, dict] = {}

    @rule(pk=pks, city=cities, score=st.integers(0, 10))
    def insert(self, pk, city, score):
        row = {"pk": pk, "city": city, "score": score}
        if pk in self.model:
            with pytest.raises(DuplicateKey):
                self.db.insert("t", row)
        else:
            self.db.insert("t", row)
            self.model[pk] = row

    @rule(pk=pks, score=st.integers(0, 10))
    def update(self, pk, score):
        if pk in self.model:
            self.db.update("t", pk, {"score": score})
            self.model[pk] = {**self.model[pk], "score": score}

    @rule(pk=pks)
    def delete(self, pk):
        if pk in self.model:
            self.db.delete("t", pk)
            del self.model[pk]

    @rule(pk=pks)
    def point_lookup(self, pk):
        assert self.db.table("t").get(pk) == self.model.get(pk)

    @rule(city=cities)
    def index_select(self, city):
        got = sorted(r["pk"] for r in self.db.table("t").select({"city": city}))
        want = sorted(pk for pk, r in self.model.items() if r["city"] == city)
        assert got == want

    @invariant()
    def counts_match(self):
        assert len(self.db.table("t")) == len(self.model)


TestRelationalMachine = RelationalMachine.TestCase
TestRelationalMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None,
)


folder_names = st.sampled_from(["a", "b", "c", "d"])
url_pool = st.sampled_from([f"http://u{i}/" for i in range(8)])


class FolderTreeMachine(RuleBasedStateMachine):
    """Folder tree checked against {path: set(urls)} plus structure laws."""

    paths = Bundle("paths")

    def __init__(self):
        super().__init__()
        self.tree = FolderTree()
        self.model: dict[str, set[str]] = {}

    @initialize(target=paths)
    def root_paths(self):
        return "a"

    @rule(target=paths, base=paths, name=folder_names)
    def make_subfolder(self, base, name):
        path = f"{base}/{name}"
        self.tree.ensure(path)
        self.model.setdefault(path, set())
        # Ancestors exist implicitly.
        parts = path.split("/")
        for i in range(1, len(parts) + 1):
            self.model.setdefault("/".join(parts[:i]), set())
        return path

    @rule(path=paths, url=url_pool)
    def add_item(self, path, url):
        self.tree.add_item(path, url)
        parts = path.split("/")
        for i in range(1, len(parts) + 1):
            self.model.setdefault("/".join(parts[:i]), set())
        self.model[path].add(url)

    @rule(path=paths, url=url_pool)
    def remove_item(self, path, url):
        if path not in self.model:
            return
        removed = self.tree.remove_item(path, url)
        assert removed == (url in self.model[path])
        self.model[path].discard(url)

    @rule(src=paths, dst=paths, url=url_pool)
    def move_item(self, src, dst, url):
        if src not in self.model or dst not in self.model:
            return
        if url in self.model.get(src, set()) and src != dst:
            self.tree.move_item(url, src, dst)
            self.model[src].discard(url)
            self.model[dst].add(url)
        else:
            if url not in self.model.get(src, set()):
                with pytest.raises(NoSuchFolder):
                    self.tree.move_item(url, src, dst)

    @invariant()
    def items_match_model(self):
        for path, urls in self.model.items():
            got = {i.url for i in self.tree.get(path).items}
            assert got == urls

    @invariant()
    def paths_resolve_and_roundtrip(self):
        for folder in self.tree.folders():
            assert self.tree.get(folder.path) is folder


TestFolderTreeMachine = FolderTreeMachine.TestCase
TestFolderTreeMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
)
