"""Stateful property-based tests: engines checked against simple models.

Hypothesis drives random operation sequences against the key-value store
and a relational table, comparing every observable result with an
in-memory reference model — the classic way to shake out
index-maintenance and recovery bugs.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.errors import DuplicateKey, KeyNotFound
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

