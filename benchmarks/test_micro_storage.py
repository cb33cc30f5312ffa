"""M1/M3 — storage substrate microbenchmarks.

The paper's architectural bet (§3) is that term-level data belongs in a
lightweight store while metadata belongs in the RDBMS.  These benches
characterize both engines plus the WAL, so the E4 system numbers have a
substrate baseline to be read against.
"""

import pytest

from repro.storage import KVStore
from repro.storage.relational import Column, Database
from repro.storage.wal import WriteAheadLog


@pytest.fixture
def filled_kv(tmp_path):
    kv = KVStore(tmp_path / "kv.log")
    for i in range(5000):
        kv.put(b"key%05d" % i, b"value-%05d" % i)
    yield kv
    kv.close()


def test_bench_kvstore_put(benchmark, tmp_path):
    kv = KVStore(tmp_path / "kv.log")
    counter = [0]

    def put_one():
        counter[0] += 1
        kv.put(b"key%08d" % counter[0], b"some-term-statistics-blob")

    benchmark(put_one)
    kv.close()


def test_bench_kvstore_get(benchmark, filled_kv):
    out = benchmark(lambda: filled_kv.get(b"key02500"))
    assert out == b"value-02500"


def test_bench_kvstore_prefix_scan(benchmark, filled_kv):
    def scan():
        return sum(1 for _ in filled_kv.prefix(b"key024"))

    assert benchmark(scan) == 100


def test_bench_kvstore_compaction(benchmark, tmp_path):
    def churn_and_compact():
        kv = KVStore(tmp_path / "churn.log", compact_garbage_ratio=2.0)
        for i in range(2000):
            kv.put(b"hot-%03d" % (i % 100), b"v%d" % i)
        kv.compact()
        stats = kv.stats()
        kv.close()
        (tmp_path / "churn.log").unlink()
        return stats

    stats = benchmark.pedantic(churn_and_compact, rounds=5, iterations=1)
    assert stats["live_keys"] == 100
    assert stats["log_records"] == 100


def test_bench_wal_append(benchmark, tmp_path):
    log = WriteAheadLog(tmp_path / "bench.wal")
    payload = b"x" * 256
    benchmark(lambda: log.append(payload))
    log.close()


def test_bench_wal_recovery(benchmark, tmp_path):
    path = tmp_path / "recover.wal"
    with WriteAheadLog(path) as log:
        for i in range(10_000):
            log.append(b"record-%06d" % i)

    def recover():
        log = WriteAheadLog(path)
        n = sum(1 for _ in log.replay())
        log.close()
        return n

    assert benchmark(recover) == 10_000


@pytest.fixture
def filled_db():
    db = Database()
    db.create_table(
        "pages",
        [Column("url"), Column("title", nullable=True),
         Column("last_seen", "float"), Column("fetched", "bool")],
        primary_key="url",
        indexes=("last_seen",),
    )
    db.insert_many("pages", (
        {"url": f"http://site{i}/", "title": f"Page {i}",
         "last_seen": float(i), "fetched": i % 2 == 0}
        for i in range(5000)
    ))
    return db


def test_bench_relational_insert(benchmark):
    db = Database()
    db.create_table(
        "visits",
        [Column("visit_id", "int"), Column("user_id"), Column("at", "float")],
        primary_key="visit_id",
        indexes=("user_id", "at"),
    )
    counter = [0]

    def insert_one():
        counter[0] += 1
        db.insert("visits", {
            "visit_id": counter[0], "user_id": "u%d" % (counter[0] % 10),
            "at": float(counter[0]),
        })

    benchmark(insert_one)


def test_bench_relational_pk_lookup(benchmark, filled_db):
    t = filled_db.table("pages")
    row = benchmark(lambda: t.get("http://site2500/"))
    assert row["title"] == "Page 2500"


def test_bench_relational_predicate_scan(benchmark, filled_db):
    t = filled_db.table("pages")
    n = benchmark(lambda: t.count(lambda r: r["fetched"]))
    assert n == 2500


def test_bench_relational_recovery(benchmark, tmp_path):
    path = tmp_path / "db.wal"
    with Database(path) as db:
        db.create_table(
            "t", [Column("k", "int"), Column("v")], primary_key="k",
        )
        db.insert_many("t", ({"k": i, "v": f"val{i}"} for i in range(3000)))

    def recover():
        db = Database(path)
        n = len(db.table("t"))
        db.close()
        return n

    assert benchmark(recover) == 3000
