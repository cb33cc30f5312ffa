"""M-sharding — write throughput scaling of the sharded cluster.

The scale-out claim of the shard subsystem: a closed-loop batched-visit
workload through the router speeds up with shard count, because each
shard worker is its own process with its own WAL — N shards means N
commit pipelines running in parallel.

**Measurement model (1-core honest).**  This container has one CPU, so
CPU-bound work cannot scale and a naive bench would measure nothing.
What sharding actually parallelizes in a deployed system is *commit
latency*: the fsync each group commit waits on.  The bench therefore
emulates a disk with ``MEMEX_BENCH_DISK_MS`` of commit latency by
patching ``os.fsync`` to a sleep — **inside the forked shard workers
only** (the factory runs in the child).  The sleep is held under the
shard's WAL lock, exactly like a real fsync: commits serialize within a
shard and overlap across shards, so the curve isolates the sharding
effect rather than the GIL.  Client think time is zero; the loop is
closed (each client waits for its batch ack before sending the next).

Clients are fixed (8, one user each, chosen so the consistent-hash ring
balances them at every point) and requests are ``visit`` batches, so a
point's throughput is bounded by its shards' aggregate commit pipeline.
Every per-item response is checked ``archived: true`` — the curve cannot
be bought with errors.

Numbers land in ``BENCH_sharding.json`` at the repo root.  Set
``MEMEX_BENCH_QUICK=1`` (CI smoke) for a shorter window and the
1-vs-2-shard points only, with the same >=1.7x gate at 2 shards.
"""

import json
import os
import threading
import time
from pathlib import Path

from repro.core.memex import MemexServer
from repro.server.daemons import FetchedPage
from repro.shard import HashRing, MemexCluster
from repro.shard.worker import WorkerSpec

QUICK = bool(os.environ.get("MEMEX_BENCH_QUICK"))
DISK_MS = float(os.environ.get("MEMEX_BENCH_DISK_MS", "3.0"))
WINDOW_S = 1.0 if QUICK else 2.5
SHARD_POINTS = (1, 2) if QUICK else (1, 2, 4)
GATES = {2: 1.7, 4: 3.0}
N_CLIENTS = 8
BATCH = 8
N_PAGES = 64
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sharding.json"

PAGES = {
    f"http://p{i:02d}/": FetchedPage(
        f"http://p{i:02d}/", f"Page {i}", f"alpha text {i}", (),
    )
    for i in range(N_PAGES)
}


def _factory(shard_id, root):
    # Runs in the forked worker: emulate commit latency for this process
    # only.  The sleep sits where the fsync would, under the WAL lock.
    os.fsync = lambda fd: time.sleep(DISK_MS / 1000.0)
    return MemexServer(PAGES.get, root=root, sync=True)


def _pick_users(n_clients):
    """Users the ring balances at every measured shard count.

    Every ring hashes a user to the same point, so assignments at
    different shard counts are correlated and exact joint balance can be
    impossible; near-balance is enough here — each shard's commit
    pipeline saturates with two closed-loop clients, so a one-client
    skew does not move the curve.  Greedy fill under per-ring caps of
    fair-share + 1, then check every shard got at least one client.
    """
    rings = [HashRing(n) for n in SHARD_POINTS if n > 1]
    counts = [{s: 0 for s in range(ring.n_shards)} for ring in rings]
    caps = [n_clients // ring.n_shards + 1 for ring in rings]
    picked, i = [], 0
    while len(picked) < n_clients and i < 100_000:
        user = f"bench{i:03d}"
        i += 1
        homes = [ring.shard_for(user) for ring in rings]
        if all(c[h] < cap for c, h, cap in zip(counts, homes, caps)):
            picked.append(user)
            for c, h in zip(counts, homes):
                c[h] += 1
    assert len(picked) == n_clients
    for c in counts:
        assert min(c.values()) >= 1, f"a shard got no clients: {c}"
    return picked


def _client_loop(transport, user, deadline, counts, idx, errors):
    done = 0
    seq = 0
    while time.perf_counter() < deadline:
        batch = [
            {"servlet": "visit",
             "url": f"http://p{(seq + j) % N_PAGES:02d}/",
             "at": float(seq + j)}
            for j in range(BATCH)
        ]
        seq += BATCH
        responses = transport.request_batch(user, batch)
        for response in responses:
            if response.get("archived") is not True:
                errors.append(response)
                return
        done += len(responses)
    counts[idx] = done


def _measure(n_shards, users, data_dir):
    cluster = MemexCluster(
        _factory, n_shards,
        data_dir=data_dir,
        tick_interval=None, monitor=False,
        router_workers=N_CLIENTS + 2,
    )
    try:
        for user in users:
            cluster.register_user(user)
        transport = cluster.transport
        # Warm up every connection (hello handshake, first commit)
        # outside the measurement window.
        for user in users:
            transport.request_batch(user, [
                {"servlet": "visit", "url": "http://p00/", "at": 0.0},
            ])
        counts = [0] * len(users)
        errors = []
        start = time.perf_counter()
        deadline = start + WINDOW_S
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(transport, user, deadline, counts, c, errors),
            )
            for c, user in enumerate(users)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        assert not errors, errors[:3]
    finally:
        cluster.close()
    return sum(counts) / elapsed


def test_write_throughput_scales_with_shards(tmp_path, monkeypatch):
    # Six socket threads per worker, five of them lent to the router: the
    # workers inherit the class attribute when they fork.
    monkeypatch.setattr(WorkerSpec, "NET_WORKERS", 6)
    users = _pick_users(N_CLIENTS)
    curve = []
    for n_shards in SHARD_POINTS:
        visits_per_s = _measure(n_shards, users, tmp_path / f"x{n_shards}")
        curve.append({
            "shards": n_shards,
            "visits_per_s": round(visits_per_s, 1),
        })
    base = curve[0]["visits_per_s"]
    speedups = {
        str(point["shards"]): round(point["visits_per_s"] / base, 2)
        for point in curve[1:]
    }
    payload = {
        "benchmark": "sharding_write_throughput",
        "quick": QUICK,
        "config": {
            "window_s": WINDOW_S,
            "clients": N_CLIENTS,
            "batch": BATCH,
            "disk_ms": DISK_MS,
            "model": (
                "closed-loop batched visits through the router; commit "
                "latency emulated (os.fsync -> sleep) inside each forked "
                "shard worker, held under the WAL lock like a real fsync. "
                "1-core container: scaling comes from overlapping the "
                "per-shard commit pipelines across processes."
            ),
        },
        "curve": curve,
        "speedups": speedups,
        "gates": {str(k): v for k, v in GATES.items() if k in SHARD_POINTS},
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    for n_shards, gate in GATES.items():
        if n_shards not in SHARD_POINTS:
            continue
        speedup = speedups[str(n_shards)]
        assert speedup >= gate, (
            f"{n_shards}-shard write throughput only {speedup:.2f}x the "
            f"single-shard rate (gate {gate}x): {curve}"
        )
