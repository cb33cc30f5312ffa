"""The server under test, as a child process of ``bench/run.py``.

Mirrors ``repro.cli.cmd_serve`` / ``_serve_cluster`` — same constructors,
same 0.1 s scheduler tick loop (single process) or forked shard workers
ticking every 0.05 s behind a router (cluster), product defaults for the
storage engine, codec, caches, tracer sampling and retrieval — and adds
only what the CLI cannot do from outside:

* takes the generated inputs as one JSON spec line on stdin (the seed is
  resolved by the parent; this process only sees generated inputs);
* registers extra users and per-user RC4 keys;
* prints one ``ready <host> <port> <json>`` line when set-up is done
  (corpus build, history replay, mining to quiescence, registration);
* stops on stdin EOF: prints one ``done <json>`` line with the ``VmHWM``
  of itself and its workers, then drains like SIGTERM does in the CLI
  (the parent may not wait for the drain: the product's listener takes
  up to 5 s to notice its socket closed).

Spec keys: ``archive`` (``build_workload`` kwargs), ``topology``
(``single`` | ``cluster``), ``shards``, ``sync``, ``root`` (data dir or
null), ``users`` (extra user ids to register), ``keys`` (user id -> hex
RC4 key), ``workers`` / ``router_workers`` (connection threads).  The
process inherits the runner's CPU affinity (one CPU).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import MemexSystem  # noqa: E402
from repro.core.api import corpus_fetcher  # noqa: E402
from repro.core.memex import MemexServer  # noqa: E402
from repro.server.transport import SocketTransport  # noqa: E402
from repro.shard import MemexCluster  # noqa: E402
from repro.webgen import build_workload  # noqa: E402


def _status_field(pid: int, field: str) -> int:
    """One ``/proc/<pid>/status`` field in KiB (0 if the process is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    """Direct child pids of *pid* (the forked shard workers)."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may contain spaces.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == pid:
            out.append(int(name))
    return sorted(out)


def _emit(tag: str, *fields: object) -> None:
    sys.stdout.write(" ".join([tag, *map(str, fields)]) + "\n")
    sys.stdout.flush()


def _read_spec() -> dict:
    """The spec line, read from the raw descriptor (see _wait_for_eof)."""
    buf = bytearray()
    while not buf.endswith(b"\n"):
        chunk = os.read(0, 1)
        if not chunk:
            break
        buf += chunk
    return json.loads(buf)


def _wait_for_eof(stop: threading.Event) -> None:
    # The parent holds our stdin open for as long as we should serve.
    # Raw os.read, not sys.stdin: a thread parked inside sys.stdin holds
    # its buffer lock, and a shard worker forked meanwhile deadlocks when
    # multiprocessing closes the inherited sys.stdin.
    while os.read(0, 4096):
        pass
    stop.set()


def _peak_rss(pids: list[int]) -> dict[str, int]:
    return {str(pid): _status_field(pid, "VmHWM") for pid in pids}


def serve_single(spec: dict, workload, stop: threading.Event) -> None:
    kwargs = {"sync": bool(spec.get("sync"))}
    if spec.get("root"):
        kwargs["root"] = spec["root"]
    system = MemexSystem.from_workload(workload, **kwargs)
    for user, key in spec.get("keys", {}).items():
        system.server.transport.set_key(user, bytes.fromhex(key))
    for user in spec.get("users", []):
        system.register_user(user, community=workload.name)
    system.replay(workload.events)
    server = system.server
    server.process_background_work()
    net = server.listen(
        host="127.0.0.1", port=0, workers=int(spec.get("workers", 8)),
    )
    host, port = net.address
    pids = [os.getpid()]
    _emit("ready", host, port, json.dumps({"pids": pids}))
    try:
        while not stop.is_set():
            server.scheduler.tick()
            time.sleep(0.1)
        _emit("done", json.dumps({"vm_hwm_kb": _peak_rss(pids)}))
    finally:
        net.close(drain=True)
        server.close()


def serve_cluster(spec: dict, workload, stop: threading.Event) -> None:
    fetch = corpus_fetcher(workload.corpus)
    sync = bool(spec.get("sync"))

    def factory(shard_id: int, root: str | None):
        return MemexServer(fetch, root=root, sync=sync)

    keys = {u: bytes.fromhex(k) for u, k in spec.get("keys", {}).items()}
    cluster = MemexCluster(
        factory, int(spec["shards"]),
        data_dir=spec.get("root"),
        host="127.0.0.1", port=0,
        router_workers=int(spec.get("router_workers", 24)),
    )
    try:
        surfers = [p.user_id for p in workload.profiles]
        for user in surfers:
            cluster.register_user(
                user, community=workload.name, cipher_key=keys.get(user),
            )
        # The router parks one worker thread per open connection, and
        # cluster.register_user keeps one connection per user open; the
        # (many) extra users register through a bounded pool instead.
        with SocketTransport(*cluster.address, max_pooled=8) as extra:
            for user in spec.get("users", []):
                if user in surfers:
                    continue
                if user in keys:
                    cluster.router.set_key(user, keys[user])
                    extra.set_key(user, keys[user])
                response = extra.request(user, {
                    "servlet": "register_user", "community": workload.name,
                    "archive_mode": "community",
                })
                if response.get("status") != "ok":
                    raise RuntimeError(f"register_user {user!r}: {response}")
        cluster.replay(workload.events)
        host, port = cluster.address
        pids = [os.getpid(), *_children(os.getpid())]
        _emit("ready", host, port, json.dumps({"pids": pids}))
        while not stop.is_set():
            time.sleep(0.1)
        _emit("done", json.dumps({"vm_hwm_kb": _peak_rss(pids)}))
    finally:
        cluster.close(drain=True)


def main() -> int:
    spec = _read_spec()
    workload = build_workload(**spec["archive"])
    stop = threading.Event()
    threading.Thread(
        target=_wait_for_eof, args=(stop,), daemon=True,
    ).start()
    if spec.get("topology") == "cluster":
        serve_cluster(spec, workload, stop)
    else:
        serve_single(spec, workload, stop)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
