"""The serving plane runs one configuration, and this test pins it.

The socket client and server, the router, the supervisor, the worker,
the cluster, health and log shipping take only what a caller really
varies: an address, a thread count, a pool cap, a timeout that differs
between two production callers, or an injected collaborator.  Backoffs,
probe intervals, read and drain timeouts, listen backlogs, SLO windows
and the log rotation bound are class attributes or module constants; a
test that needs another value monkeypatches the constant.

Each signature's parameter names are spelled out below, so adding a
knob means editing this file too.  Those left have reasons:

* ``connect_timeout`` on :class:`SocketTransport` is 2 s for the
  supervisor's shard transports and 5 s for clients;
* ``idle_timeout`` on :class:`MemexSocketServer` and ``listen`` is
  300 s in shard workers and 30 s everywhere else;
* ``response_timeout``, ``max_pooled``, ``workers``, ``router_workers``,
  ``authoritative_user`` and ``key_source`` are what ``bench/`` passes;
* ``MemexCluster``'s ``tick_interval`` and ``monitor`` keep the forked
  cluster tests deterministic.
"""

import inspect

from repro.core.memex import MemexServer
from repro.obs.health import HealthMonitor, ServletSlo
from repro.obs.shipping import LogShipper
from repro.server.netserver import MemexSocketServer
from repro.server.transport import SocketTransport
from repro.shard.cluster import MemexCluster
from repro.shard.router import ShardRouter
from repro.shard.supervisor import ShardSupervisor
from repro.shard.worker import WorkerSpec

PARAMETERS = {
    SocketTransport: [
        "host", "port", "connect_timeout", "response_timeout", "max_pooled"],
    MemexSocketServer: [
        "registry", "host", "port", "workers", "idle_timeout",
        "authoritative_user", "key_source", "metrics", "log"],
    MemexServer.listen: ["host", "port", "workers", "idle_timeout"],
    WorkerSpec: ["factory", "tick_interval"],
    ShardRouter: [
        "backends", "ring", "available", "host", "port", "workers",
        "metrics", "log", "tracer", "shard_info"],
    ShardSupervisor: ["spec", "n_shards", "data_dir", "host", "log"],
    MemexCluster: [
        "factory", "n_shards", "data_dir", "host", "port", "router_workers",
        "tick_interval", "monitor", "metrics", "tracer"],
    HealthMonitor: ["clock"],
    ServletSlo: ["name", "policy", "latency", "errors", "clock"],
    LogShipper: ["path", "shard"],
}


def test_the_serving_plane_takes_only_the_parameters_it_varies():
    got = {
        target: [name for name in inspect.signature(target).parameters
                 if name != "self"]
        for target in PARAMETERS
    }
    assert got == PARAMETERS
