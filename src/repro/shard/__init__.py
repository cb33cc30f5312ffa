"""Sharded multi-process scale-out (user-partitioned distribution).

The subsystem that takes the single-process Memex server to a worker
fleet: a consistent-hash ring maps each user to one shard
(:mod:`.ring`), the one routing code path both deployment shapes share
(:mod:`.gather`) and the merges it applies (:mod:`.merge`), per-shard
worker processes (:mod:`.worker`) under a restarting supervisor
(:mod:`.supervisor`), the key-terminating socket front door
(:mod:`.router`), and the all-in-one deployment facade (:mod:`.cluster`).
"""

from .cluster import MemexCluster
from .gather import LocalBackend, ShardDispatcher
from .ring import HashRing
from .router import ShardRouter
from .supervisor import ShardSupervisor
from .worker import WorkerSpec

__all__ = [
    "HashRing",
    "LocalBackend",
    "MemexCluster",
    "ShardDispatcher",
    "ShardRouter",
    "ShardSupervisor",
    "WorkerSpec",
]
