"""MemexCluster: supervisor + router + client plumbing in one object.

The sharded analogue of :class:`~repro.core.api.MemexSystem`::

    cluster = MemexCluster(factory, n_shards=4, data_dir="/var/memex")
    cluster.register_user("user00")
    applet = cluster.connect("user00")
    applet.record_visit("http://example/")
    cluster.quiesce()
    cluster.close()

``factory(shard_id, root)`` builds one shard-local
:class:`~repro.core.memex.MemexServer`; it runs inside the forked
worker, so closures over an in-memory corpus work.  The cluster starts
the supervisor (which forks and health-checks the workers), then the
router over the supervisor's per-shard transports and availability
view, and exposes one client :class:`~repro.server.transport.
SocketTransport` pointed at the router — every applet, replay, and test
speaks to the cluster exactly the way it would speak to a single
server.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from typing import Any, Callable

from pathlib import Path

from ..client.applet import MemexApplet, replay_events
from ..errors import ProtocolError
from ..obs import HealthMonitor, LogHub, LogShipper, MetricsRegistry, Tracer
from ..server.transport import SocketTransport
from .ring import HashRing
from .router import ShardRouter
from .supervisor import STATUS_UP, ShardSupervisor
from .worker import WorkerSpec


class MemexCluster:
    """A sharded Memex deployment behind one router address.

    Observability plane: the cluster owns a router-process tracer (the
    dispatcher joins client traceparents and stamps each backend hop), a
    :class:`HealthMonitor` with a ``supervisor`` check over the worker
    fleet, and — when ``data_dir`` is given — a :class:`LogShipper`
    appending router logs and finished router spans to
    ``<data_dir>/router/logs/router.jsonl``, alongside the per-worker
    ``<data_dir>/shard-NN/logs/worker.jsonl`` files the workers write.
    ``repro trace``/``repro logs`` read those files back.
    """

    def __init__(
        self,
        factory: Callable[[int, str | None], Any],
        n_shards: int,
        *,
        data_dir: str | os.PathLike[str] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        router_workers: int = 16,
        tick_interval: float | None = 0.05,
        monitor: bool = True,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.logs = LogHub(clock=self.metrics.clock)
        self.tracer = tracer if tracer is not None else Tracer(sample_every=8)
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.ring = HashRing(n_shards)
        self.supervisor = ShardSupervisor(
            WorkerSpec(factory=factory, tick_interval=tick_interval),
            n_shards,
            data_dir=data_dir, host=host,
            log=self.logs.logger("supervisor"),
        )
        self.health = HealthMonitor(clock=self.metrics.clock)
        self.health.add_check("supervisor", self._check_supervisor)
        self.router: ShardRouter | None = None
        self.transport: SocketTransport | None = None
        self._shipper: LogShipper | None = None
        if self.data_dir is not None:
            self._shipper = LogShipper(
                self.data_dir / "router" / "logs" / "router.jsonl",
                shard="router",
            )
            self.logs.attach(self._shipper.log_sink)
            self.tracer.attach(self._shipper.span_sink)
        try:
            self.supervisor.start()
            self.router = ShardRouter(
                self.supervisor.transports(),
                ring=self.ring,
                available=self.supervisor.available,
                host=host, port=port, workers=router_workers,
                metrics=self.metrics,
                log=self.logs.logger("router"),
                tracer=self.tracer,
                shard_info=self.supervisor.health_detail,
            )
            if monitor:
                self.supervisor.start_monitor()
            # The router parks one worker thread per open connection.
            # Our own applets hold about one per request in flight, and
            # the cap keeps them from ever holding every worker.
            self.transport = SocketTransport(
                *self.router.address,
                max_pooled=max(1, router_workers - 1),
            )
        except BaseException:
            self.close(drain=False)
            raise
        self._applets: dict[str, MemexApplet] = {}

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        assert self.router is not None
        return self.router.address

    @property
    def n_shards(self) -> int:
        return self.supervisor.n_shards

    def close(self, *, drain: bool = True) -> None:
        """Drain the router first (in-flight responses land), then stop
        the worker fleet (each worker drains its own listener)."""
        if self.transport is not None:
            self.transport.close()
            self.transport = None
        if self.router is not None:
            self.router.close(drain=drain)
            self.router = None
        self.supervisor.stop(drain=drain)
        if self._shipper is not None:
            self.logs.detach(self._shipper.log_sink)
            self.tracer.detach(self._shipper.span_sink)
            self._shipper.close()
            self._shipper = None

    def __enter__(self) -> "MemexCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- accounts / clients ---------------------------------------------------

    def register_user(
        self,
        user_id: str,
        *,
        community: str | None = None,
        archive_mode: str = "community",
        cipher_key: bytes | None = None,
    ) -> MemexApplet:
        """Create the account on every shard; returns a connected applet."""
        assert self.router is not None and self.transport is not None
        if cipher_key is not None:
            self.router.set_key(user_id, cipher_key)
            self.transport.set_key(user_id, cipher_key)
        response = self.transport.request(user_id, {
            "servlet": "register_user",
            "community": community,
            "archive_mode": archive_mode,
        })
        if response.get("status") != "ok":
            raise ProtocolError(
                f"register_user failed: {response.get('error', response)}"
            )
        return self.connect(user_id)

    def connect(self, user_id: str) -> MemexApplet:
        """An applet session over the router (cached per user)."""
        assert self.transport is not None
        if user_id not in self._applets:
            self._applets[user_id] = MemexApplet(self.transport, user_id)
        return self._applets[user_id]

    def request(self, user_id: str, payload: dict[str, Any]) -> dict[str, Any]:
        assert self.transport is not None
        return self.transport.request(user_id, payload)

    # -- operations -----------------------------------------------------------

    def quiesce(self) -> int:
        """Run every shard's daemons until idle (deterministic tests)."""
        return self.supervisor.quiesce()

    def _check_supervisor(self) -> tuple[bool, str]:
        """HealthMonitor check: the whole worker fleet is up."""
        detail = self.supervisor.health_detail()
        up = sum(1 for d in detail.values() if d["status"] == STATUS_UP)
        restarts = sum(d["restarts"] for d in detail.values())
        down = sorted(
            str(sid) for sid, d in detail.items() if d["status"] != STATUS_UP)
        msg = f"{up}/{len(detail)} shards up, {restarts} restarts"
        if down:
            msg += f", down: {','.join(down)}"
        return up == len(detail), msg

    def health_report(self) -> dict[str, Any]:
        """Router-process health: the cluster monitor's own checks (the
        supervisor fleet view), complementing the scatter-merged
        ``health`` servlet the workers answer."""
        return self.health.report()

    def metrics_pull(self, user_id: str = "__operator__") -> dict[str, Any]:
        """Cluster-merged raw metrics: the scatter-gathered
        ``metrics_pull`` response (``metrics`` merged bucket-wise,
        ``by_shard`` for drill-down; the servlet is unauthenticated,
        like ``health``)."""
        return self.request(user_id, {"servlet": "metrics_pull"})

    def stats(self, user_id: str) -> dict[str, Any]:
        """Cluster-wide stats as *user_id* (the ``stats`` servlet
        authenticates): the scatter-merged per-shard counters plus the
        router's own routing table."""
        assert self.router is not None
        merged = self.request(user_id, {"servlet": "stats"})
        merged["router"] = self.router.stats()
        merged["shard_status"] = {
            str(k): v for k, v in self.supervisor.statuses().items()
        }
        return merged

    # -- replay ---------------------------------------------------------------

    def replay(
        self,
        events: Iterable[Any],
        *,
        batch_size: int = 32,
    ) -> dict[str, int]:
        """Feed simulated surf events through applets over the router
        (:func:`~repro.client.applet.replay_events`, as
        :meth:`repro.core.api.MemexSystem.replay` does; daemons tick
        inside the workers instead of between batches), then quiesce."""
        counts = replay_events(events, self.connect, batch_size=batch_size)
        self.quiesce()
        return counts
