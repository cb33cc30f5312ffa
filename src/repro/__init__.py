"""Memex reproduction: a browsing assistant for collaborative archiving
and mining of surf trails (Chakrabarti et al., VLDB 2000).

Public API highlights:

* :class:`repro.core.MemexSystem` — build a server over a (simulated) Web,
  connect client applets, replay surfing.
* :mod:`repro.webgen` — the synthetic Web + surfer workload generator.
* :mod:`repro.mining` — naive-Bayes and enhanced classifiers, HAC,
  scatter/gather, theme discovery.
* :mod:`repro.folders` — Netscape/IE bookmark interchange for the folder tab.
* :mod:`repro.storage` — the relational + key-value storage substrate.
* :mod:`repro.obs` — metrics, tracing, and profiling, wired through the
  whole server pipeline.
* :mod:`repro.cache` — version-aware read-path caches for search,
  trail replay, and related pages.
"""

from . import (
    cache,
    client,
    core,
    folders,
    mining,
    obs,
    server,
    storage,
    text,
    webgen,
)
from .core import MemexServer, MemexSystem, MotivatingQueries
from .errors import MemexError
from .webgen import bookmark_challenge_workload, build_workload

__version__ = "1.0.0"

__all__ = [
    "MemexError",
    "MemexServer",
    "MemexSystem",
    "MotivatingQueries",
    "__version__",
    "bookmark_challenge_workload",
    "build_workload",
    "cache",
    "client",
    "core",
    "folders",
    "mining",
    "obs",
    "server",
    "storage",
    "text",
    "webgen",
]
