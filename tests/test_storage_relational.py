"""Tests for the in-process relational engine."""

import errno
import os
import sys
import threading
import time

import pytest

from repro.errors import (
    DuplicateKey,
    NoSuchColumn,
    NoSuchTable,
    SchemaError,
    TransactionError,
)
from repro.storage.relational import Column, Database


@pytest.fixture
def db():
    d = Database()
    d.create_table(
        "people",
        [
            Column("pid", "int"),
            Column("name"),
            Column("age", "int", nullable=True),
            Column("city", nullable=True),
            Column("email", nullable=True),
        ],
        primary_key="pid",
        indexes=("city", "age"),
        unique=("email",),
    )
    return d


def fill(db):
    db.insert_many("people", [
        {"pid": 1, "name": "ada", "age": 36, "city": "london", "email": "ada@x"},
        {"pid": 2, "name": "alan", "age": 41, "city": "london", "email": "alan@x"},
        {"pid": 3, "name": "grace", "age": 85, "city": "nyc", "email": "grace@x"},
        {"pid": 4, "name": "edsger", "age": 72, "city": None, "email": None},
    ])


def test_insert_and_get(db):
    fill(db)
    row = db.table("people").get(1)
    assert row["name"] == "ada"
    assert db.table("people").get(99) is None
    assert len(db.table("people")) == 4


def test_rows_are_copies(db):
    fill(db)
    row = db.table("people").get(1)
    row["name"] = "mutated"
    assert db.table("people").get(1)["name"] == "ada"


def test_duplicate_pk_rejected(db):
    fill(db)
    with pytest.raises(DuplicateKey):
        db.insert("people", {"pid": 1, "name": "dup"})


def test_unique_constraint(db):
    fill(db)
    with pytest.raises(DuplicateKey):
        db.insert("people", {"pid": 9, "name": "x", "email": "ada@x"})
    # NULLs don't collide.
    db.insert("people", {"pid": 10, "name": "y", "email": None})


def test_unique_constraint_on_update(db):
    fill(db)
    with pytest.raises(DuplicateKey):
        db.update("people", 2, {"email": "ada@x"})
    db.update("people", 2, {"email": "alan2@x"})  # fine


def test_type_checking(db):
    with pytest.raises(SchemaError):
        db.insert("people", {"pid": "not-an-int", "name": "x"})
    with pytest.raises(SchemaError):
        db.insert("people", {"pid": 5, "name": 42})
    with pytest.raises(SchemaError):
        db.insert("people", {"pid": 5})  # name not nullable


def test_unknown_column_rejected(db):
    with pytest.raises(SchemaError):
        db.insert("people", {"pid": 5, "name": "x", "nope": 1})


def test_select_equality_uses_index(db):
    fill(db)
    rows = db.table("people").select({"city": "london"})
    assert sorted(r["name"] for r in rows) == ["ada", "alan"]
    assert db.table("people").select({"city": "mars"}) == []


def test_an_equality_select_examines_its_smallest_index_bucket(db, monkeypatch):
    """With two indexed columns constrained, the rows examined are the
    smaller of their buckets, whichever column the dict names first."""
    table = db.table("people")
    db.insert_many("people", [
        {"pid": pid, "name": f"p{pid}", "age": 30 + pid % 2,
         "city": "london" if pid < 95 else "nyc", "email": None}
        for pid in range(100)
    ])
    examined = []
    candidates = type(table)._candidates

    def counting(self, where):
        rows = candidates(self, where)
        examined.append(len(rows))
        return rows

    monkeypatch.setattr(type(table), "_candidates", counting)
    for where in ({"city": "nyc", "age": 31}, {"age": 31, "city": "nyc"}):
        assert sorted(r["pid"] for r in table.select(where)) == [95, 97, 99]
    assert table.select({"age": 31, "city": "paris"}) == []
    assert examined == [5, 5, 0]


def test_select_predicate_order_limit(db):
    fill(db)
    rows = db.table("people").select(
        lambda r: r["age"] is not None and r["age"] > 40, order_by="age",
    )
    assert [r["name"] for r in rows] == ["alan", "edsger", "grace"]
    assert [r["name"] for r in rows[:2]] == ["alan", "edsger"]


def test_select_orders_nulls_last(db):
    fill(db)
    rows = db.table("people").select(order_by="city")
    assert rows[-1]["city"] is None


def test_select_unknown_column_raises(db):
    fill(db)
    with pytest.raises(NoSuchColumn):
        db.table("people").select({"nope": 1})
    with pytest.raises(NoSuchColumn):
        db.table("people").select(order_by="nope")


def test_project_and_lookup_read_columns_as_select_and_get_would(db):
    fill(db)
    table = db.table("people")
    for where in ({"city": "london"}, {"pid": 3}, {"pid": 99}, {"name": "ada"},
                  {"city": "nyc", "age": 85}, {"email": None},
                  lambda r: r["age"] > 40, None):
        rows = table.select(where)
        assert table.project(where, "name") == [r["name"] for r in rows]
        assert table.project(where, "pid", "city") == [
            (r["pid"], r["city"]) for r in rows]
    assert table.lookup([3, 99, 1], "name") == ["grace", None, "ada"]
    with pytest.raises(NoSuchColumn):
        table.project(None, "nope")
    with pytest.raises(NoSuchColumn):
        table.lookup([1], "nope")


def test_update_maintains_indexes(db):
    fill(db)
    db.update("people", 1, {"city": "cambridge"})
    assert db.table("people").select({"city": "cambridge"})[0]["pid"] == 1
    assert sorted(r["pid"] for r in db.table("people").select({"city": "london"})) == [2]
    db.update("people", 1, {"age": 37})
    assert [r["pid"] for r in db.table("people").select({"age": 37})] == [1]
    assert db.table("people").select({"age": 36}) == []


def test_pk_is_immutable(db):
    fill(db)
    with pytest.raises(SchemaError):
        db.update("people", 1, {"pid": 100})


def test_delete_maintains_indexes(db):
    fill(db)
    db.delete("people", 2)
    assert [r["pid"] for r in db.table("people").select({"city": "london"})] == [1]
    assert db.table("people").count() == 3


def test_count_and_aggregate(db):
    fill(db)
    t = db.table("people")
    assert t.count() == 4
    assert {city: t.count({"city": city}) for city in ("london", "nyc", None)} \
        == {"london": 2, "nyc": 1, None: 1}
    assert t.count(lambda r: r["age"] > 50) == 2
    with pytest.raises(NoSuchColumn):
        t.count({"nope": 1})


def test_transaction_commit_is_atomic(db):
    with db.begin() as txn:
        txn.insert("people", {"pid": 1, "name": "a"})
        txn.insert("people", {"pid": 2, "name": "b"})
    assert db.table("people").count() == 2


def test_transaction_abort_discards(db):
    txn = db.begin()
    txn.insert("people", {"pid": 1, "name": "a"})
    txn.abort()
    assert db.table("people").count() == 0
    with pytest.raises(TransactionError):
        txn.commit()


def test_transaction_rolls_back_on_midway_failure(db):
    fill(db)
    txn = db.begin()
    txn.insert("people", {"pid": 50, "name": "ok"})
    txn.insert("people", {"pid": 1, "name": "dup"})  # will collide
    with pytest.raises(DuplicateKey):
        txn.commit()
    # The first insert must have been rolled back too.
    assert db.table("people").get(50) is None
    assert db.table("people").count() == 4


def test_transaction_context_manager_aborts_on_exception(db):
    with pytest.raises(RuntimeError):
        with db.begin() as txn:
            txn.insert("people", {"pid": 1, "name": "a"})
            raise RuntimeError("boom")
    assert db.table("people").count() == 0


def test_reads_see_pre_transaction_state(db):
    fill(db)
    txn = db.begin()
    txn.delete("people", 1)
    assert db.table("people").get(1) is not None  # not yet applied
    txn.commit()
    assert db.table("people").get(1) is None


def test_ddl_errors(db):
    with pytest.raises(SchemaError):
        db.create_table("people", ["x"], primary_key="x")
    db.create_table("people", ["x"], primary_key="x", if_not_exists=True)
    with pytest.raises(NoSuchTable):
        db.table("ghost")
    with pytest.raises(NoSuchColumn):
        db.create_table("bad", ["a"], primary_key="zz")
    with pytest.raises(SchemaError):
        db.create_table("bad2", [Column("a", "uuid")], primary_key="a")


def test_persistence_and_recovery(tmp_path):
    path = tmp_path / "db.wal"
    with Database(path) as db:
        db.create_table(
            "t", [Column("k", "int"), Column("v"), Column("n", "int", nullable=True)],
            primary_key="k", indexes=("v",),
        )
        db.insert("t", {"k": 1, "v": "one", "n": None})
        db.insert("t", {"k": 2, "v": "two", "n": 5})
        db.update("t", 1, {"v": "uno"})
        db.delete("t", 2)
    with Database(path) as db:
        assert db.tables() == ["t"]
        assert db.table("t").get(1) == {"k": 1, "v": "uno", "n": None}
        assert db.table("t").get(2) is None
        # Indexes were rebuilt on recovery.
        assert db.table("t").select({"v": "uno"})[0]["k"] == 1
        # And the recovered database accepts new work.
        db.insert("t", {"k": 3, "v": "three", "n": 1})
    with Database(path) as db:
        assert db.table("t").count() == 2


def test_recovery_ignores_uncommitted(tmp_path):
    path = tmp_path / "db.wal"
    db = Database(path)
    db.create_table("t", [Column("k", "int"), Column("v")], primary_key="k")
    db.insert("t", {"k": 1, "v": "committed"})
    txn = db.begin()
    txn.insert("t", {"k": 2, "v": "never-committed"})
    # Simulate a crash: close without commit.
    db.close()
    with Database(path) as db2:
        assert db2.table("t").count() == 1


def test_json_column(tmp_path):
    with Database(tmp_path / "db.wal") as db:
        db.create_table(
            "t", [Column("k", "int"), Column("blob", "json", nullable=True)],
            primary_key="k",
        )
        db.insert("t", {"k": 1, "blob": {"weights": [0.1, 0.9], "label": "music"}})
    with Database(tmp_path / "db.wal") as db:
        assert db.table("t").get(1)["blob"]["weights"] == [0.1, 0.9]


def test_bool_column_rejects_plain_int():
    db = Database()
    db.create_table("t", [Column("k", "int"), Column("flag", "bool")], primary_key="k")
    with pytest.raises(SchemaError):
        db.insert("t", {"k": 1, "flag": 1})
    db.insert("t", {"k": 1, "flag": True})


def _catalog_state(db):
    return {
        name: (
            list(db.table(name).scan()),
            db.table(name).select({"email": "a@x"}) if name == "people" else None,
            {row["n"]: [r["k"] for r in db.table(name).select({"n": row["n"]})]
             for row in db.table(name).scan()},
        )
        for name in db.tables()
    }


def test_recovery_checkpoints_a_log_dominated_by_dead_records(tmp_path):
    """1,000 updates of one row used to be replayed on every open forever.
    The open that finds the log mostly dead rewrites it as the live state;
    the next open replays O(live rows) records."""
    path = tmp_path / "db.wal"
    with Database(path) as db:
        db.create_table(
            "people",
            [Column("k", "int"), Column("email"), Column("n", "int")],
            primary_key="k", indexes=("n",), unique=("email",),
        )
        db.insert("people", {"k": 1, "email": "a@x", "n": 0})
        db.insert("people", {"k": 2, "email": "b@x", "n": 5})
        db.insert("people", {"k": 3, "email": "c@x", "n": 7})
        db.delete("people", 3)
        for i in range(1, 1001):
            db.update("people", 1, {"n": i})
        before = _catalog_state(db)
    # A torn tail ahead of the checkpointing open is discarded as ever.
    with open(path, "ab") as fh:
        fh.write(b"\x07torn-half-record")
    size_before = path.stat().st_size

    def replayed(opened):
        return sum(1 for _ in opened._log.replay())

    with Database(path) as db:                  # this open checkpoints
        assert _catalog_state(db) == before
        assert db._log.size_bytes() < size_before // 10
        assert replayed(db) == 2                # create_table + one insert txn
    with Database(path) as db:                  # and this one starts from it
        assert _catalog_state(db) == before
        assert replayed(db) == 2                # stable: no re-checkpoint churn
        with pytest.raises(DuplicateKey):
            db.insert("people", {"k": 9, "email": "a@x", "n": 1})
        db.insert("people", {"k": 3, "email": "c@x", "n": 7})
        assert [r["k"] for r in db.table("people").select({"n": 7})] == [3]
    with Database(path) as db:
        assert db.table("people").count() == 3


def test_recovery_leaves_a_mostly_live_log_alone(tmp_path):
    path = tmp_path / "db.wal"
    with Database(path) as db:
        db.create_table("t", [Column("k", "int"), Column("n", "int")],
                        primary_key="k")
        for i in range(100):
            db.insert("t", {"k": i, "n": i})
        for i in range(40):
            db.update("t", i, {"n": -i})
        size = db._log.size_bytes()
    with Database(path) as db:
        assert db._log.size_bytes() == size


# -- select copies only what it returns ----------------------------------------

def test_mutating_a_selected_row_leaves_the_table_unchanged(db):
    fill(db)
    t = db.table("people")
    before = list(t.scan())
    for rows in (
        t.select(), t.select({"city": "london"}), t.select({"pid": 1}),
        t.select(lambda r: r["age"] > 50, order_by="age"),
    ):
        for row in rows:
            row["name"] = "mutated"
            row["city"] = "nowhere"
    assert list(t.scan()) == before
    assert t.count({"city": "nowhere"}) == 0
    assert {r["pid"] for r in t.select({"city": "london"})} == {1, 2}


def test_a_predicate_may_select_from_another_table(db):
    fill(db)
    db.create_table("cities", [Column("name"), Column("country")],
                    primary_key="name", indexes=("country",))
    db.insert_many("cities", [
        {"name": "london", "country": "uk"}, {"name": "nyc", "country": "us"},
    ])
    people, cities = db.table("people"), db.table("cities")

    def in_uk(row):
        return any(c["name"] == row["city"]
                   for c in cities.select({"country": "uk"}))

    assert [r["name"] for r in people.select(in_uk, order_by="pid")] == \
        ["ada", "alan"]
    assert people.count(in_uk) == 2
    # ...and the same table, whose lock the outer select has let go.
    assert people.count(lambda r: people.get(r["pid"]) is not None) == 4


def test_a_predicate_that_raises_releases_the_read_lock(db):
    """The predicate runs outside the table's lock, so its exception
    leaves nothing held: a commit after it takes the lock at once."""
    fill(db)
    t = db.table("people")

    def boom(row):
        raise RuntimeError("predicate failed")

    for read in (t.select, t.count):
        with pytest.raises(RuntimeError):
            read(boom)
    committed = threading.Event()

    def commit():
        db.update("people", 1, {"age": 37})
        committed.set()

    writer = threading.Thread(target=commit, daemon=True)
    writer.start()
    assert committed.wait(5.0), "a commit hung on a lock the failed read kept"
    writer.join()
    assert t.get(1)["age"] == 37


def test_reopening_with_a_new_index_builds_it_from_the_stored_rows(tmp_path):
    path = tmp_path / "db.wal"
    columns = [Column("k", "int"), Column("tag", nullable=True)]
    with Database(path) as db:
        db.create_table("t", columns, primary_key="k")
        db.insert_many("t", [{"k": i, "tag": "ab"[i % 2]} for i in range(5)])
        db.insert("t", {"k": 9, "tag": None})
    with Database(path) as db:
        t = db.create_table(
            "t", columns, primary_key="k", indexes=("tag",), if_not_exists=True)
        assert t.schema.indexes == ("tag",)
        assert {tag: sorted(pks) for tag, pks in t._hash["tag"].items()} == \
            {"a": [0, 2, 4], "b": [1, 3], None: [9]}
        db.update("t", 0, {"tag": "b"})
        assert [r["k"] for r in t.select({"tag": "b"}, order_by="k")] == [0, 1, 3]
    with Database(path) as db:         # the log keeps the old create_table
        assert db.table("t").schema.indexes == ()


def _table_state(table):
    """A table's rows and index buckets, as plain sorted values."""
    rows = sorted(table.scan(), key=lambda r: r["k"])
    buckets = {
        col: {value: sorted(pks) for value, pks in by_value.items()}
        for col, by_value in table._hash.items()
    }
    return rows, buckets


def test_a_refused_log_append_rolls_the_commit_back(tmp_path, monkeypatch):
    """A commit whose log append raises serves nothing it did not log:
    rows and index buckets are as before it, the next commit succeeds,
    and a reopen recovers exactly what was served."""
    path = tmp_path / "db.wal"
    columns = [Column("k", "int"), Column("tag"), Column("email", nullable=True)]
    with Database(path, sync=True) as db:
        db.create_table(
            "t", columns, primary_key="k", indexes=("tag",), unique=("email",))
        db.insert_many("t", [
            {"k": 1, "tag": "a", "email": "one@x"},
            {"k": 2, "tag": "b", "email": "two@x"},
        ])
        t = db.table("t")
        before = _table_state(t)

        def refuse(payload):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(db._log, "append", refuse)
        with pytest.raises(OSError):
            with db.begin() as txn:
                txn.insert("t", {"k": 3, "tag": "a", "email": "three@x"})
                txn.update("t", 1, {"tag": "c", "email": "uno@x"})
                txn.delete("t", 2)
        assert _table_state(t) == before

        monkeypatch.undo()
        db.insert("t", {"k": 3, "tag": "a", "email": "three@x"})
        served = _table_state(t)
        assert [r["k"] for r in served[0]] == [1, 2, 3]
        assert served[1]["tag"] == {"a": [1, 3], "b": [2]}
    with Database(path) as reopened:
        assert _table_state(reopened.table("t")) == served


@pytest.mark.parametrize("refusal", [
    OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt(),
], ids=["enospc", "interrupt"])
def test_a_retried_insert_after_a_refused_fsync_reopens(
        tmp_path, monkeypatch, refusal):
    """A commit whose fsync raises is taken back from the log as well as
    from memory, so retrying the same primary key logs it once and a
    reopen serves exactly what was served."""
    path = tmp_path / "db.wal"
    with Database(path, sync=True) as db:
        db.create_table("t", [Column("k", "int"), Column("tag")],
                        primary_key="k", indexes=("tag",))
        db.insert("t", {"k": 1, "tag": "a"})
        t = db.table("t")
        before = _table_state(t)
        real_fsync = os.fsync
        calls = []

        def refuse_once(fd):
            calls.append(fd)
            if len(calls) == 1:
                raise refusal
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", refuse_once)
        with pytest.raises(type(refusal)):
            db.insert("t", {"k": 2, "tag": "b"})
        assert _table_state(t) == before
        db.insert("t", {"k": 2, "tag": "b"})
        served = _table_state(t)
        assert [r["k"] for r in served[0]] == [1, 2]
    with Database(path) as reopened:
        assert _table_state(reopened.table("t")) == served


def _accounts():
    """Two rows of one table holding 100 units between them; ``seq`` is
    the number of the last commit that moved a unit."""
    d = Database()
    d.create_table(
        "acct", [Column("k", "int"), Column("bal", "int"), Column("seq", "int"),
                 Column("kind")],
        primary_key="k", indexes=("kind",),
    )
    d.insert_many("acct", [
        {"k": 0, "bal": 50, "seq": 0, "kind": "acct"},
        {"k": 1, "bal": 50, "seq": 0, "kind": "acct"},
    ])
    return d


def _move_a_unit(db, n):
    """Commit *n*: one unit from row 0 to row 1, row 0 written first."""
    with db.begin() as txn:
        txn.update("acct", 0, {"bal": 50 - n, "seq": n})
        txn.update("acct", 1, {"bal": 50 + n, "seq": n})


def _read_totals(t):
    """The total each kind of read saw, one read of each."""
    def by_predicate(row):
        seen.append(row["bal"])
        return True

    seen = []
    assert t.count(by_predicate) == 2
    first, second = t.get(0), t.get(1)
    # A commit writes row 0 before row 1: a row 1 older than the row 0
    # read before it is half a commit, and two rows of one commit hold
    # the total.
    assert second["seq"] >= first["seq"], (first, second)
    totals = {
        "select": sum(r["bal"] for r in t.select()),
        "select_indexed": sum(r["bal"] for r in t.select({"kind": "acct"})),
        "scan": sum(r["bal"] for r in t.scan()),
        "count": sum(seen),
    }
    if second["seq"] == first["seq"]:
        totals["get"] = first["bal"] + second["bal"]
    return totals


@pytest.fixture
def fast_switching():
    """Threads hand the interpreter lock over every 10 µs, not 5 ms."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _stop(readers, stop):
    stop.set()
    for thread in readers:
        thread.join(5.0)
    assert not any(thread.is_alive() for thread in readers)


def _readers(t, stop, problems, rounds):
    """One thread per slot of *rounds*, reading *t* in a loop until
    *stop*; each counts its rounds in its slot and records a failure in
    *problems*."""
    def loop(slot):
        try:
            while not stop.is_set():
                totals = _read_totals(t)
                assert set(totals.values()) == {100}, totals
                rounds[slot] += 1
        except Exception as exc:
            problems.append(exc)

    threads = [threading.Thread(target=loop, args=(slot,), daemon=True)
               for slot in range(len(rounds))]
    for thread in threads:
        thread.start()
    return threads


def test_a_reader_never_sees_half_a_commit(fast_switching):
    """Commits go on for 0.3 s beside two readers (thousands of each);
    a commit that takes no table lock fails this."""
    db = _accounts()
    t = db.table("acct")
    stop, problems, rounds = threading.Event(), [], [0, 0]
    readers = _readers(t, stop, problems, rounds)
    deadline = time.monotonic() + 0.3
    n = 0
    try:
        while not problems and time.monotonic() < deadline:
            n += 1
            _move_a_unit(db, n)
    finally:
        _stop(readers, stop)
    assert problems == []
    assert min(rounds) > 0
    assert t.get(0)["bal"] == 50 - n and t.get(1)["bal"] == 50 + n


def test_a_commit_is_not_starved_by_readers_in_tight_loops(fast_switching):
    db = _accounts()
    t = db.table("acct")
    stop, problems, rounds = threading.Event(), [], [0, 0]
    readers = _readers(t, stop, problems, rounds)
    wait_until = time.monotonic() + 5.0
    while min(rounds) == 0 and not problems and time.monotonic() < wait_until:
        time.sleep(0.001)       # both readers are in their loops
    start = time.monotonic()
    try:
        for n in range(1, 201):
            _move_a_unit(db, n)
    finally:
        elapsed = time.monotonic() - start
        _stop(readers, stop)
    assert elapsed < 10.0, f"200 commits took {elapsed:.1f} s beside two readers"
    assert problems == []
    assert t.get(1)["seq"] == 200
