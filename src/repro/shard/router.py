"""Shard router: the cluster's single front door.

:class:`ShardRouter` accepts the *unchanged* framed wire protocol (a
client cannot tell a router from a single server), reads the hello
frames on each connection to learn which user each request speaks for,
and routes every decoded request through the shared
:class:`~repro.shard.gather.ShardDispatcher` — the same code path
in-process dispatch uses, with socket backends instead of a local one.

Trust boundary: the router terminates per-user RC4.  Client frames are
decoded with the user's key at the router (the last hello on the
connection names the key), and the router->worker hop runs cleartext
inside the cluster — the router is a *key-terminating* proxy, not a
byte relay, because routing requires the decoded ``servlet``/``user_id``
fields anyway.  ``docs/PROTOCOL.md`` documents the contract.

The hello binding is authoritative: the socket server stamps the user
of the connection's last hello onto every request it forwards, so a
payload cannot claim one user in the hello and another in ``user_id``
to reach a different shard's data.

``_router_lock`` ("router" rank, the outermost level in
``repro.locks.LOCK_ORDER``) guards the router's own bookkeeping — the
per-shard routed-request table ``stats`` reports.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ..obs.logging import Logger, null_logger
from ..obs.metrics import MetricsRegistry, null_registry
from ..obs.tracing import Tracer
from ..server.netserver import DictKeySource, MemexSocketServer
from .gather import Backend, ShardDispatcher
from .ring import HashRing


class ShardRouter:
    """Front-end socket server + shard dispatcher (see module docstring).

    Trace hop: when built with a ``tracer``, the dispatcher opens a
    ``router.dispatch`` span per request (joining the client's
    ``traceparent``) with per-shard forward/broadcast/scatter child
    spans, and stamps each hop's context into the backend payload — the
    one ``trace_id`` survives client -> router -> worker.
    """

    def __init__(
        self,
        backends: list[Backend],
        *,
        ring: HashRing | None = None,
        available: Callable[[int], bool] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 16,
        metrics: MetricsRegistry | None = None,
        log: Logger | None = None,
        tracer: Tracer | None = None,
        shard_info: Callable[[], dict[int, dict[str, Any]]] | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else null_registry()
        self.log = log if log is not None else null_logger("router")
        self.keys = DictKeySource()
        self.dispatcher = ShardDispatcher(
            backends, ring=ring, available=available,
            tracer=tracer, shard_info=shard_info,
        )
        # Outermost lock: guards the routed-per-shard table below.
        self._router_lock = threading.Lock()
        self._routed: dict[int, int] = {
            shard: 0 for shard in range(self.dispatcher.n_shards)
        }
        self._server = MemexSocketServer(
            self,
            host=host, port=port, workers=workers,
            key_source=self.keys,
            authoritative_user=True,
            metrics=self.metrics,
            log=self.log,
        )

    # -- dispatch (the socket server's registry hook) -------------------------

    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        """Route one request; never raises (the dispatcher degrades every
        failure to a typed wire error)."""
        user = request.get("user_id")
        shard = self.dispatcher.shard_for(user if isinstance(user, str) else "")
        response = self.dispatcher.dispatch(request)
        with self._router_lock:
            self._routed[shard] += 1
        return response

    # -- surface --------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self._server.address

    @property
    def n_shards(self) -> int:
        return self.dispatcher.n_shards

    def set_key(self, user_id: str, key: bytes | None) -> None:
        """Register a client cipher key (terminated at the router)."""
        self.keys.set_key(user_id, key)

    def stats(self) -> dict[str, Any]:
        with self._router_lock:
            routed = dict(self._routed)
        return {
            "shards": self.dispatcher.n_shards,
            "routed": {str(k): v for k, v in sorted(routed.items())},
            "available": {
                str(shard): self.dispatcher.is_available(shard)
                for shard in range(self.dispatcher.n_shards)
            },
        }

    def close(self, *, drain: bool = True) -> None:
        """Drain the front-end socket server, then the scatter pool."""
        self._server.close(drain=drain)
        self.dispatcher.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
