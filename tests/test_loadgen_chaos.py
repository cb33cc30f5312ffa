"""Chaos injection against a real cluster: the zero-lost-acks contract.

These tests drive a live :class:`~repro.shard.MemexCluster` (forked
workers, real WALs, real TCP through the router) and inject faults
through the supervisor and the client — worker SIGKILL, torn WAL tails,
severed client connections — then prove the recovery invariants:

* **zero lost acknowledged writes** — every visit acked ``archived:
  true`` before (or during) the fault is present after WAL replay;
* **the torn tail is discarded** — a record simulating a crash
  mid-write never resurrects, and never poisons later commits;
* **bounded partial window** — scatter reads degrade to ``partial:
  true`` while a shard is down and return to complete results once the
  supervisor restarts it.

The WAL-tear hook itself is tested failing-first: tearing a live
worker's WAL must be refused (it would corrupt *acknowledged* state,
which is not the failure mode a crash can produce under ``sync=True``).
"""

import threading
import time

import pytest

from repro.core.memex import MemexServer
from repro.errors import ProtocolError
from repro.server.daemons import FetchedPage
from repro.shard import MemexCluster

N_TOPICS = 3
PAGES_PER_TOPIC = 12

PAGES = {
    f"http://site{t}/p{p:02d}": FetchedPage(
        f"http://site{t}/p{p:02d}", f"Topic {t} page {p}",
        f"delta text topic{t} page{p}", (),
    )
    for t in range(N_TOPICS)
    for p in range(PAGES_PER_TOPIC)
}


def _factory(shard_id, root):
    # sync=True: an acked visit is fsynced before the ack leaves.  The
    # zero-lost-acks assertions below are meaningless without it.
    return MemexServer(PAGES.get, root=root, sync=True)


def _cluster(tmp_path, n_shards=2, **kwargs):
    kwargs.setdefault("tick_interval", None)
    return MemexCluster(_factory, n_shards, data_dir=tmp_path, **kwargs)


def _seed_acked_visits(cluster, user, n=12):
    """Write *n* visits through the router; return how many were acked."""
    urls = sorted(PAGES)
    batch = [
        {"servlet": "visit", "url": urls[i % len(urls)], "at": float(i)}
        for i in range(n)
    ]
    responses = cluster.transport.request_batch(user, batch)
    return sum(1 for r in responses if r.get("archived") is True)


def _user_on_shard(cluster, shard):
    for i in range(1000):
        user = f"victim{i:03d}"
        if cluster.ring.shard_for(user) == shard:
            return user
    raise AssertionError("no user hashed to the victim shard")


# -- the WAL-tear hook, failing-first ----------------------------------------


class TestTearWalTail:
    def test_refuses_live_worker(self, tmp_path):
        with _cluster(tmp_path, n_shards=1, monitor=False) as cluster:
            with pytest.raises(ProtocolError, match="kill"):
                cluster.supervisor.tear_wal_tail(0)

    def test_refuses_memory_only_shard(self):
        with MemexCluster(
            lambda sid, root: MemexServer(PAGES.get),
            1, data_dir=None, tick_interval=None, monitor=False,
        ) as cluster:
            assert cluster.supervisor.wal_paths(0) == []
            cluster.supervisor.kill(0)
            with pytest.raises(ProtocolError, match="no on-disk"):
                cluster.supervisor.tear_wal_tail(0)

    def test_appends_torn_record_after_kill(self, tmp_path):
        with _cluster(tmp_path, n_shards=1, monitor=False) as cluster:
            cluster.supervisor.auto_restart = False
            user = _user_on_shard(cluster, 0)
            cluster.register_user(user)
            assert _seed_acked_visits(cluster, user, n=8) == 8
            paths = cluster.supervisor.wal_paths(0)
            assert any(p.name == "catalog.wal" for p in paths)
            catalog = next(p for p in paths if p.name == "catalog.wal")
            before = catalog.stat().st_size
            cluster.supervisor.kill(0)
            torn = cluster.supervisor.tear_wal_tail(0)
            # Header (crc32 + length, 8 bytes) plus half the 64-byte
            # payload it promises: a short read at replay time.
            assert torn == 8 + 32
            assert catalog.stat().st_size == before + torn

    def test_recovery_discards_tail_and_keeps_every_ack(self, tmp_path):
        with _cluster(tmp_path, n_shards=2) as cluster:
            victim = 1
            user = _user_on_shard(cluster, victim)
            cluster.register_user(user)
            acked = _seed_acked_visits(cluster, user, n=16)
            assert acked == 16

            cluster.supervisor.kill(victim)
            cluster.supervisor.tear_wal_tail(victim)
            assert cluster.supervisor.wait_until_up(victim, timeout=30.0)

            st = cluster.stats(user)
            recovered = int(st["by_shard"][str(victim)]["visits"])
            assert recovered >= acked, (
                f"lost acked writes: acked {acked}, recovered {recovered}"
            )

            # The torn record must not poison the log: new commits land,
            # and a *second* crash/recovery cycle still holds everything.
            assert _seed_acked_visits(cluster, user, n=8) == 8
            cluster.supervisor.kill(victim)
            assert cluster.supervisor.wait_until_up(victim, timeout=30.0)
            st = cluster.stats(user)
            assert int(st["by_shard"][str(victim)]["visits"]) >= acked + 8


# -- partial windows ----------------------------------------------------------


def test_scatter_degrades_partial_then_recovers_bounded(tmp_path):
    with _cluster(tmp_path, n_shards=2) as cluster:
        user = "observer00"
        cluster.register_user(user)
        st = cluster.stats(user)
        assert st["partial"] is False

        victim = 0
        cluster.supervisor.kill(victim)
        st = cluster.stats(user)
        assert st["partial"] is True
        assert victim in st["shards_failed"]

        # The partial window is bounded by the supervisor's restart: a
        # scatter read must come back complete again within the restart
        # budget, not merely eventually.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            st = cluster.stats(user)
            if st["partial"] is False:
                break
            time.sleep(0.2)
        assert st["partial"] is False, "partial window never closed"


# -- writers under chaos -----------------------------------------------------


def test_open_loop_run_under_chaos_loses_no_acked_visit(tmp_path):
    """Closed-loop writer threads send visit batches over real TCP while
    shard 1 is SIGKILLed and every client connection is severed at once.
    Afterwards every acknowledged visit must be on some shard, and the
    cluster must be serving complete (non-partial) scatter reads again."""
    urls = sorted(PAGES)
    with _cluster(tmp_path, n_shards=2) as cluster:
        writers = [f"writer{i}" for i in range(4)]
        for user in writers:
            cluster.register_user(user)
        assert {cluster.ring.shard_for(u) for u in writers} == {0, 1}
        stop = threading.Event()
        acked = dict.fromkeys(writers, 0)

        def write(user):
            at = 0.0
            while not stop.is_set():
                batch = []
                for _ in range(4):
                    at += 1.0
                    batch.append({"servlet": "visit", "at": at,
                                  "url": urls[int(at) % len(urls)]})
                try:
                    responses = cluster.transport.request_batch(user, batch)
                except ProtocolError:
                    stop.wait(0.05)   # a retryable break: nothing acked
                    continue
                acked[user] += sum(
                    1 for r in responses if r.get("archived") is True)

        threads = [threading.Thread(target=write, args=(u,)) for u in writers]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.5)
            cluster.supervisor.kill(1)
            cluster.transport.close()
            assert cluster.supervisor.wait_until_up(1, timeout=30.0)
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)

        total_acked = sum(acked.values())
        assert total_acked > 0
        st = cluster.stats(writers[0])
        assert st["partial"] is False
        stored = sum(int(row["visits"]) for row in st["by_shard"].values())
        assert stored >= total_acked, (
            f"lost acked writes under chaos: acked {total_acked}, "
            f"stored {stored}"
        )
