"""Shard worker: one process, one shard-local Memex server.

``worker_main`` is the child-process entry point the supervisor forks.
It builds the shard's :class:`~repro.core.memex.MemexServer` from the
:class:`WorkerSpec` factory (its own KVStore/WAL/relational directory
under ``root``), restores any persisted state (WAL replay happens inside
the storage layer on open), serves the framed wire protocol on its own
socket, and then loops: ticking the daemon scheduler between checks of
the supervisor control pipe.

Control protocol (parent -> child over the pipe)::

    ("stop", drain)   drain the socket server, save state, exit
    ("quiesce",)      run daemons until idle, reply ("quiesced", done)

Child -> parent::

    ("ready", (host, port))   serving; address may differ from the
                              requested port if rebinding raced
    ("quiesced", n) / ("stopped",)
    ("error", message)        startup or shutdown failed

The spec's ``factory`` runs *in the child*: with the fork start method
it is inherited by reference, so closures over an in-memory corpus are
fine, and benchmarks can shim process-global behaviour (e.g. emulated
commit latency) for the worker only.
"""

from __future__ import annotations

import os
import signal
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..obs.shipping import LogShipper

CMD_STOP = "stop"
CMD_QUIESCE = "quiesce"


def _release_inherited_sockets(keep: set[int]) -> None:
    """Detach every socket fd the fork copied from the parent.

    A forked worker inherits duplicates of *all* the parent's open
    sockets: the router's listener and per-client connections, the
    backend transports, and — when the load generator runs in the same
    process — every client-pool socket.  Those duplicates keep the
    kernel connections alive: a peer closing its end never delivers EOF
    while this child still holds a copy, so router worker threads park
    forever on connections their clients abandoned (observed as 30 s
    timeouts after any worker restart under connection churn).

    Each such fd slot is re-pointed at ``/dev/null`` via ``dup2`` rather
    than closed: inherited Python socket objects still reference these
    fd *numbers*, and closing them outright would let a later destructor
    close an unrelated file that reused the number (the shard's own WAL,
    at worst).  ``dup2`` drops the kernel socket reference immediately
    — the peer gets its EOF — while leaving the number safely occupied
    until the object's own close.

    Only sockets are touched (the control pipe in *keep* included —
    it is an AF_UNIX socketpair); regular files and pipes (e.g. the
    multiprocessing resource tracker) pass through untouched.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # pragma: no cover - non-procfs platform
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd < 3 or fd == devnull or fd in keep:
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                continue
    finally:
        os.close(devnull)


@dataclass(frozen=True)
class WorkerSpec:
    """How the supervisor builds each shard worker.

    ``factory(shard_id, root)`` returns the shard's ``MemexServer``;
    ``root`` is the shard's private data directory (None = in-memory).
    ``tick_interval`` is the idle delay between scheduler ticks; None
    disables background ticking (tests drive daemons via ``quiesce``).
    """

    #: Threads of each worker's socket server.  The supervisor lends the
    #: router all but one of them, so a direct connection always finds one.
    NET_WORKERS = 4
    #: Seconds a worker keeps an idle connection open.  Its clients are
    #: the router's pooled hops, which sit idle between bursts, so it
    #: outlasts the 30 s a server gives a client.
    IDLE_TIMEOUT = 300.0

    factory: Callable[[int, str | None], Any]
    tick_interval: float | None = 0.05


def worker_main(
    spec: WorkerSpec,
    shard_id: int,
    host: str,
    port: int,
    root: str | None,
    conn: Any,
) -> None:
    """Child-process body; never returns normally before serving stops."""
    # The supervisor coordinates shutdown over the pipe; a stray SIGINT
    # aimed at the parent's process group must not kill workers mid-write.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _release_inherited_sockets(keep={conn.fileno()})
    server = None
    net = None
    shipper = None
    try:
        server = spec.factory(shard_id, root)
        if root is not None:
            server.restore_state()
            # Ship this worker's structured logs and finished spans to a
            # bounded JSONL file under its private data directory; the
            # parent reads the files back for `repro logs` / `repro
            # trace`.  In-memory shards (no root) keep ring buffers only.
            logs = getattr(server, "logs", None)
            tracer = getattr(server, "tracer", None)
            if logs is not None or tracer is not None:
                shipper = LogShipper(
                    Path(root) / "logs" / "worker.jsonl",
                    shard=str(shard_id),
                )
                if logs is not None:
                    logs.attach(shipper.log_sink)
                if tracer is not None:
                    tracer.attach(shipper.span_sink)
        try:
            net = server.listen(
                host=host, port=port, workers=spec.NET_WORKERS,
                idle_timeout=spec.IDLE_TIMEOUT,
            )
        except OSError:
            # The fixed port is taken (restart raced another binder):
            # fall back to an ephemeral port and report the real address.
            net = server.listen(
                host=host, port=0, workers=spec.NET_WORKERS,
                idle_timeout=spec.IDLE_TIMEOUT,
            )
        conn.send(("ready", tuple(net.address)))
    except Exception as exc:  # noqa: BLE001 - report startup failure
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
        raise

    drain = True
    try:
        while True:
            wait = spec.tick_interval if spec.tick_interval else 0.2
            try:
                has_msg = conn.poll(wait)
            except OSError:  # parent's pipe end vanished
                drain = False
                break
            if has_msg:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    drain = False  # parent died; exit without drain
                    break
                cmd = msg[0]
                if cmd == CMD_STOP:
                    drain = bool(msg[1]) if len(msg) > 1 else True
                    break
                if cmd == CMD_QUIESCE:
                    done = server.process_background_work()
                    conn.send(("quiesced", done))
            elif spec.tick_interval:
                server.tick()
    finally:
        try:
            net.close(drain=drain)
            if root is not None:
                server.save_state()
            server.close()
            if shipper is not None:
                shipper.close()
            conn.send(("stopped",))
        except Exception:  # noqa: BLE001 - best-effort shutdown
            pass
