"""Shard supervisor: spawn, health-check, and restart worker processes.

The supervisor owns the cluster's worker fleet.  Each shard gets a
forked process running :func:`repro.shard.worker.worker_main`, a control
pipe, a private data directory (``<data_dir>/shard-NN`` when a data dir
is given), and one pooled :class:`~repro.server.transport.
SocketTransport` the router uses as that shard's backend.

Shard lifecycle::

    starting --ready--> probing --health ok--> up
       ^                                        |
       |                process died (monitor)  |
       +----------------- respawn <-------------+ (down)

While a shard is anywhere left of ``up``, the router's availability
predicate reports it down, so clients see retryable ``unavailable``
errors instead of connection storms; the transport's reconnect backoff
(see ``SocketTransport``) bounds the attempts that do slip through.

Restarts reuse the shard's original port (``SO_REUSEADDR`` in the
worker's listener) so backends keep stable addresses; if rebinding
races, the worker falls back to an ephemeral port and the supervisor
re-points the transport.  A restarted shard recovers acknowledged
writes from its own WAL during storage open — the supervisor only
gates *traffic* on the health servlet answering ``live``.

``_supervisor_lock`` ("supervisor" rank in ``repro.locks.LOCK_ORDER``)
guards shard state transitions and control-pipe I/O; health probes run
over the shard transports outside any pipe operation.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Any

from ..errors import ProtocolError
from ..obs.logging import Logger, null_logger
from ..server.transport import SocketTransport
from .worker import CMD_QUIESCE, CMD_STOP, WorkerSpec, worker_main

#: Hello user the supervisor's health probes bind their connections to
#: (the health servlet is unauthenticated by design).
PROBE_USER = "__supervisor__"

STATUS_STARTING = "starting"
STATUS_PROBING = "probing"
STATUS_UP = "up"
STATUS_DOWN = "down"


def _describe_exit(exitcode: int | None) -> str | None:
    """Human-readable worker exit reason (``None`` while unknown)."""
    if exitcode is None:
        return None
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:  # pragma: no cover - unnamed signal number
            name = f"signal {-exitcode}"
        return f"killed by {name}"
    return f"exit code {exitcode}"


class _Shard:
    """Parent-side state for one worker process."""

    __slots__ = (
        "shard_id", "proc", "conn", "root", "port", "address",
        "status", "restarts", "spawned_at",
        "last_exit", "backoff", "backoff_until", "fail_streak",
    )

    def __init__(self, shard_id: int, root: str | None) -> None:
        self.shard_id = shard_id
        self.root = root
        self.proc: Any = None
        self.conn: Any = None
        self.port = 0            # 0 until first bind; then pinned
        self.address: tuple[str, int] | None = None
        self.status = STATUS_STARTING
        self.restarts = 0
        self.spawned_at = 0.0
        self.last_exit: str | None = None   # why the last death happened
        self.backoff = 0.0                  # restart delay currently applied
        self.backoff_until = 0.0            # monotonic deadline; 0 = disarmed
        self.fail_streak = 0                # rapid successive deaths


class ShardSupervisor:
    """Run ``n_shards`` worker processes and keep them healthy.

    ``auto_restart`` (on) respawns a dead worker; a test that wants one
    to stay dead turns it off.
    """

    #: Seconds between monitor passes.
    HEALTH_INTERVAL = 0.25
    #: Seconds :meth:`start` waits for every worker to serve and pass
    #: its first health check.
    START_TIMEOUT = 30.0
    #: Connect and response timeouts of the per-shard transports.  A
    #: shard is on this host, so a connect that takes longer than this
    #: means it is down.
    CONNECT_TIMEOUT = 2.0
    RESPONSE_TIMEOUT = 30.0
    #: Exponential restart backoff: RESTART_BACKOFF * 2^streak, capped at
    #: MAX_BACKOFF, where the streak counts *rapid* successive deaths (a
    #: worker that stayed up longer than BACKOFF_RESET_AFTER before dying
    #: restarts at RESTART_BACKOFF).
    RESTART_BACKOFF = 0.05
    MAX_BACKOFF = 2.0
    BACKOFF_RESET_AFTER = 30.0

    def __init__(
        self,
        spec: WorkerSpec,
        n_shards: int,
        *,
        data_dir: str | os.PathLike[str] | None = None,
        host: str = "127.0.0.1",
        log: Logger | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.spec = spec
        self.host = host
        self.auto_restart = True
        self.log = log if log is not None else null_logger("supervisor")
        self._ctx = multiprocessing.get_context("fork")
        roots: list[str | None] = [None] * n_shards
        if data_dir is not None:
            base = Path(data_dir)
            roots = [str(base / f"shard-{i:02d}") for i in range(n_shards)]
        self._shards = [_Shard(i, roots[i]) for i in range(n_shards)]
        self._transports: list[SocketTransport] = []
        # Guards shard state transitions and all control-pipe I/O.
        self._supervisor_lock = threading.RLock()
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def start(self) -> None:
        """Spawn every worker and block until all are serving and healthy."""
        with self._supervisor_lock:
            for shard in self._shards:
                self._spawn(shard)
        deadline = time.monotonic() + self.START_TIMEOUT
        for shard in self._shards:
            self._await_ready(shard, deadline)
        with self._supervisor_lock:
            # Backend hops are cleartext (shards hold no keys), so each
            # request says hello as its real user.  A shard parks one
            # worker thread per open connection: leave one free for
            # direct (non-router) connections.
            mux = max(1, self.spec.NET_WORKERS - 1)
            self._transports = [
                SocketTransport(
                    shard.address[0], shard.address[1],
                    connect_timeout=self.CONNECT_TIMEOUT,
                    response_timeout=self.RESPONSE_TIMEOUT,
                    max_pooled=mux,
                )
                for shard in self._shards
            ]
        for shard in self._shards:
            if not self._probe(shard, deadline=deadline):
                raise ProtocolError(
                    f"shard {shard.shard_id} failed its first health check"
                )

    def stop(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the monitor, drain every worker, and reap the processes."""
        if self._closed:
            return
        self._closed = True
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout)
        with self._supervisor_lock:
            for shard in self._shards:
                if shard.proc is not None and shard.proc.is_alive():
                    try:
                        shard.conn.send((CMD_STOP, drain))
                    except (BrokenPipeError, OSError):
                        pass
            deadline = time.monotonic() + timeout
            for shard in self._shards:
                if shard.proc is None:
                    continue
                shard.proc.join(timeout=max(0.1, deadline - time.monotonic()))
                if shard.proc.is_alive():  # pragma: no cover - wedged worker
                    shard.proc.terminate()
                    shard.proc.join(timeout=1.0)
                shard.status = STATUS_DOWN
        for transport in self._transports:
            transport.close()
        self.log.info("stopped", drained=drain)

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- spawn / ready / probe ----------------------------------------------

    def _spawn(self, shard: _Shard) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                self.spec, shard.shard_id, self.host, shard.port,
                shard.root, child_conn,
            ),
            name=f"memex-shard-{shard.shard_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        shard.proc = proc
        shard.conn = parent_conn
        shard.status = STATUS_STARTING
        shard.spawned_at = time.monotonic()
        self.log.info("spawned", shard=shard.shard_id, pid=proc.pid,
                      port=shard.port)

    def _await_ready(self, shard: _Shard, deadline: float) -> None:
        """Block until *shard* reports its listening address."""
        while True:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise ProtocolError(
                    f"shard {shard.shard_id} did not come up within "
                    f"{self.START_TIMEOUT}s"
                )
            with self._supervisor_lock:
                if self._drain_ready_message(shard, wait=min(timeout, 0.2)):
                    return

    def _drain_ready_message(self, shard: _Shard, *, wait: float = 0.0) -> bool:
        """Consume a pending child message; True once 'ready' arrived.
        Caller holds ``_supervisor_lock``."""
        try:
            if not shard.conn.poll(wait):
                return False
            msg = shard.conn.recv()
        except (EOFError, OSError):
            return False
        if msg[0] == "ready":
            host, port = msg[1]
            shard.address = (host, port)
            if shard.port == 0:
                shard.port = port
            shard.status = STATUS_PROBING
            if len(self._transports) > shard.shard_id:
                self._transports[shard.shard_id].set_address(host, port)
            return True
        if msg[0] == "error":
            raise ProtocolError(
                f"shard {shard.shard_id} failed to start: {msg[1]}"
            )
        return False

    def _probe(self, shard: _Shard, *, deadline: float | None = None) -> bool:
        """Health-check *shard* over its transport until live (or deadline)."""
        transport = self._transports[shard.shard_id]
        while True:
            try:
                report = transport.request(PROBE_USER, {"servlet": "health"})
                if report.get("status") == "ok" and report.get("live"):
                    with self._supervisor_lock:
                        shard.status = STATUS_UP
                    self.log.info("healthy", shard=shard.shard_id,
                                  health=report.get("health"))
                    return True
            except ProtocolError:
                pass
            if deadline is None or time.monotonic() >= deadline:
                return False
            time.sleep(0.05)

    # -- monitoring / restart -------------------------------------------------

    def available(self, shard_id: int) -> bool:
        """Router-facing liveness view (plain attribute read, lock-free)."""
        return self._shards[shard_id].status == STATUS_UP

    def statuses(self) -> dict[int, str]:
        return {s.shard_id: s.status for s in self._shards}

    def health_detail(self) -> dict[int, dict[str, Any]]:
        """Per-shard lifecycle detail for merged ``health`` reports:
        status, restart count, the backoff currently applied, and the
        last exit reason (``None`` until a shard has died once)."""
        now = time.monotonic()
        out: dict[int, dict[str, Any]] = {}
        for s in self._shards:
            remaining = max(0.0, s.backoff_until - now) if s.backoff_until else 0.0
            out[s.shard_id] = {
                "status": s.status,
                "restarts": s.restarts,
                "backoff": round(s.backoff, 4),
                "backoff_remaining": round(remaining, 4),
                "last_exit": s.last_exit,
                "uptime": round(now - s.spawned_at, 3)
                if s.status == STATUS_UP else 0.0,
            }
        return out

    def transports(self) -> list[SocketTransport]:
        """The per-shard backends (shared with the router's dispatcher)."""
        return self._transports

    def poll(self) -> None:
        """One monitor pass: detect deaths, respawn, re-admit healthy shards."""
        for shard in self._shards:
            if shard.status in (STATUS_UP, STATUS_PROBING):
                if shard.proc is not None and not shard.proc.is_alive():
                    with self._supervisor_lock:
                        shard.status = STATUS_DOWN
                    self.log.info("shard_died", shard=shard.shard_id,
                                  exitcode=shard.proc.exitcode)
                    # Stale pooled connections point at a dead socket.
                    self._transports[shard.shard_id].reset_backoff()
            if shard.status == STATUS_DOWN and self.auto_restart:
                now = time.monotonic()
                if shard.backoff_until == 0.0:
                    # First pass after this death: record why, arm backoff.
                    with self._supervisor_lock:
                        if shard.proc is not None:
                            shard.last_exit = _describe_exit(
                                shard.proc.exitcode)
                        uptime = now - shard.spawned_at
                        if uptime > self.BACKOFF_RESET_AFTER:
                            shard.fail_streak = 0
                        else:
                            shard.fail_streak += 1
                        shard.backoff = min(
                            self.MAX_BACKOFF,
                            self.RESTART_BACKOFF * (2 ** shard.fail_streak),
                        )
                        shard.backoff_until = now + shard.backoff
                    self.log.info(
                        "restart_scheduled", shard=shard.shard_id,
                        backoff=shard.backoff, last_exit=shard.last_exit,
                    )
                if now < shard.backoff_until:
                    continue
                with self._supervisor_lock:
                    self._reap(shard)
                    self._spawn(shard)
                    shard.restarts += 1
                    shard.backoff_until = 0.0   # disarm until the next death
            if shard.status == STATUS_STARTING:
                with self._supervisor_lock:
                    self._drain_ready_message(shard)
            if shard.status == STATUS_PROBING:
                self._probe(shard)

    @staticmethod
    def _reap(shard: _Shard) -> None:
        if shard.proc is not None:
            shard.proc.join(timeout=0.5)
        if shard.conn is not None:
            try:
                shard.conn.close()
            except OSError:
                pass

    def start_monitor(self) -> None:
        """Run :meth:`poll` on a background thread every :attr:`HEALTH_INTERVAL`."""
        if self._monitor is not None:
            return

        def loop() -> None:
            while not self._stopping.wait(self.HEALTH_INTERVAL):
                try:
                    self.poll()
                except Exception:  # noqa: BLE001 - monitor must survive
                    self.log.error("monitor_pass_failed")

        self._monitor = threading.Thread(
            target=loop, name="memex-shard-monitor", daemon=True,
        )
        self._monitor.start()

    def kill(self, shard_id: int) -> None:
        """SIGKILL a worker (crash-recovery tests and chaos drills)."""
        shard = self._shards[shard_id]
        if shard.proc is not None and shard.proc.is_alive():
            os.kill(shard.proc.pid, signal.SIGKILL)
            shard.proc.join(timeout=5.0)
        with self._supervisor_lock:
            shard.status = STATUS_DOWN

    def wal_paths(self, shard_id: int) -> list[Path]:
        """The write-ahead logs under *shard_id*'s data directory (the
        catalog WAL).  Empty for an in-memory shard (no data dir)."""
        shard = self._shards[shard_id]
        if shard.root is None:
            return []
        root = Path(shard.root)
        if not root.exists():
            return []
        return sorted(p for p in root.rglob("*.wal") if p.is_file())

    def tear_wal_tail(self, shard_id: int) -> int:
        """Chaos hook: append a **torn record** to *shard_id*'s catalog
        WAL, simulating a crash mid-write (power cut between the header
        hitting disk and the payload following it).

        The worker must be dead (see :meth:`kill`) — appending to a WAL
        another process is writing would corrupt *acknowledged* state,
        which is not the failure mode being simulated: under the
        durability contract (``sync=True`` ⇒ ack == fsynced) a real
        crash can only ever tear the unacknowledged tail.  The record
        written here claims more payload bytes than follow it, so the
        storage layer's open-time scan identifies it as torn and
        discards it; every acked record before it must survive.

        Returns the number of torn bytes appended.  Raises
        ``ProtocolError`` if the worker is still alive or the shard has
        no on-disk WAL.
        """
        shard = self._shards[shard_id]
        if shard.proc is not None and shard.proc.is_alive():
            raise ProtocolError(
                f"refusing to tear shard {shard_id}'s WAL while its worker "
                "is alive; kill() it first"
            )
        paths = [p for p in self.wal_paths(shard_id) if p.name == "catalog.wal"]
        if not paths:
            raise ProtocolError(
                f"shard {shard_id} has no on-disk catalog WAL to tear"
            )
        # A record header promising more payload than is present: the
        # open-time scan sees the short read and truncates here.
        payload = bytes(64)
        header = struct.pack(
            "<II", zlib.crc32(payload) & 0xFFFFFFFF, len(payload),
        )
        torn = header + payload[: len(payload) // 2]
        with open(paths[0], "ab") as fh:
            fh.write(torn)
            fh.flush()
            os.fsync(fh.fileno())
        self.log.info("wal_torn", shard=shard_id, bytes=len(torn))
        return len(torn)

    def wait_until_up(self, shard_id: int, *, timeout: float = 30.0) -> bool:
        """Block until *shard_id* is healthy again (drives :meth:`poll`
        inline so tests need no monitor thread)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.available(shard_id):
                return True
            if self._monitor is None:
                self.poll()
            time.sleep(0.05)
        return self.available(shard_id)

    # -- cluster-wide helpers -------------------------------------------------

    def quiesce(self, *, timeout: float = 60.0) -> int:
        """Run every shard's daemons until idle; returns total work done."""
        total = 0
        with self._supervisor_lock:
            for shard in self._shards:
                if shard.status != STATUS_UP:
                    continue
                shard.conn.send((CMD_QUIESCE,))
                deadline = time.monotonic() + timeout
                while time.monotonic() < deadline:
                    if shard.conn.poll(0.1):
                        msg = shard.conn.recv()
                        if msg[0] == "quiesced":
                            total += int(msg[1])
                            break
                else:
                    raise ProtocolError(
                        f"shard {shard.shard_id} did not quiesce in {timeout}s"
                    )
        return total
