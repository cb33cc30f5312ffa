"""The serving plane and the library under it run one configuration,
and this test pins it.

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

Below the servlets the same holds for the read path, the text and
retrieval planes and the mining library (``LIBRARY``): a trail's
confidence floor, size and half-life, a neighbourhood's hops and size,
a recommendation's peers, HITS' stopping rule, the tokenizer's minimum
word length, the snippet marks, the classifier's channel weights and
vote smoothing, buckshot's refinement rounds, the theme tree's depth,
the ring's virtual nodes, the browser's history length, the log floor
and the dense index's namespace are constants.  Options that
only ever took their default went with the code they switched: private
trails, unstemmed or stopword-keeping tokens, descending or truncated
selects, a classifier without its text or co-visit channel, exported
classifier guesses, an unquiesced cluster replay, a chosen torn-WAL
byte, an unregistered workload.  What is left is the input each
function works on, plus:

* ``EnhancedClassifier``'s ``use_links``, ``use_folder``,
  ``relaxation_rounds`` and ``feature_budget``, which the E1 and A1–A3
  ablations in ``benchmarks/`` vary;
* ``ThemeDiscovery``'s thresholds: E8 passes ``min_split_folders`` and
  ``cohesion_threshold``, and ``min_split_users`` is the "common
  factors" rule its tests vary beside them;
* ``HierarchicalClassifier``'s ``ambiguity_threshold``, the switch of
  its early stop at an internal node, which is off by default;
* ``LogHub``'s ``capacity``, ``clock`` and ``enabled``, which the null
  hub and the servers' hubs pass;
* ``dims`` on ``DenseVectorIndex``, which the dense reference tests
  compare at several widths;
* ``record_visit_batch``'s ``backfill``: the session ids a history
  import gives the user's earlier session-less visits, in the
  transaction that stores the import.
"""

import inspect

from repro.client.browser import Browser
from repro.core.api import MemexSystem
from repro.core.community import CommunityReport
from repro.core.context import context_neighborhood
from repro.core.memex import MemexServer
from repro.core.recommend import recommend_pages
from repro.core.sessions import session_ids
from repro.core.trails import build_trail_graph
from repro.folders.importer import folders_to_bookmarks
from repro.mining.hierarchical import HierarchicalClassifier
from repro.mining.linkanalysis import hits
from repro.mining.linkfolder import EnhancedClassifier, _vote_distribution
from repro.mining.scatter_gather import buckshot
from repro.mining.themes import ThemeDiscovery
from repro.obs.health import HealthMonitor, ServletSlo
from repro.obs.logging import LogHub
from repro.obs.shipping import LogShipper
from repro.retrieval.dense import DenseVectorIndex
from repro.server.netserver import MemexSocketServer
from repro.server.transport import SocketTransport
from repro.shard.cluster import MemexCluster
from repro.shard.ring import HashRing
from repro.shard.router import ShardRouter
from repro.shard.supervisor import ShardSupervisor
from repro.shard.worker import WorkerSpec
from repro.storage.relational import Table
from repro.storage.repository import MemexRepository
from repro.text.snippets import Snippet
from repro.text.tokenize import tokenize

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


LIBRARY = {
    tokenize: ["text"],
    Snippet.marked: [],
    Table.select: ["where", "order_by"],
    MemexRepository.community_visits: ["since"],
    MemexRepository.record_visit_batch: ["items", "backfill"],
    MemexRepository.edit: ["now"],
    build_trail_graph: [
        "repo", "folder_ids", "folder_paths", "since", "user_id",
        "include_urls"],
    context_neighborhood: ["repo", "session"],
    recommend_pages: ["repo", "themes", "profiles", "user_id", "k"],
    session_ids: ["rows", "first"],
    CommunityReport.shared_themes: [],
    MemexSystem.from_workload: ["workload", "server_kwargs"],
    hits: ["graph"],
    EnhancedClassifier: [
        "use_links", "use_folder", "relaxation_rounds", "feature_budget"],
    _vote_distribution: ["votes", "classes"],
    buckshot: ["vectors", "k", "rng"],
    ThemeDiscovery: [
        "min_split_folders", "min_split_users", "cohesion_threshold"],
    HierarchicalClassifier: ["ambiguity_threshold"],
    folders_to_bookmarks: ["view"],
    DenseVectorIndex: ["kv", "dims"],
    HashRing: ["n_shards"],
    Browser: [],
    LogHub: ["capacity", "clock", "enabled"],
    MemexCluster.replay: ["events", "batch_size"],
    ShardSupervisor.tear_wal_tail: ["shard_id"],
}


def _parameters(targets):
    return {
        target: [name for name in inspect.signature(target).parameters
                 if name != "self"]
        for target in targets
    }


def test_the_serving_plane_takes_only_the_parameters_it_varies():
    assert _parameters(PARAMETERS) == PARAMETERS


def test_the_library_takes_only_the_parameters_its_callers_vary():
    assert _parameters(LIBRARY) == LIBRARY
