"""Every function has a caller somebody runs.

A function costs a reader's time and a place for bugs to hide, so one
exists only if something runs it.  The run here is what a deployment
does in process: one on-disk ``sync=True`` server and an in-process
2-shard dispatcher answer every ``REQUESTS`` row, every malformed input
of ``MALFORMED`` and every ``search`` mode × scope on a replayed seeded
archive, ``repro top`` draws two frames of each, both quiesce, the
server closes and reopens, and the CLI's in-process commands run.  A
profile hook (``sys.setprofile``'s, through :mod:`cProfile`, and
``threading.setprofile``, installed before any thread starts) records
every code object entered.  Every function and method under
``src/repro`` (found with ``ast``, a decorated one from its first
decorator line) that was never entered must be named in :data:`KEPT`
with one of these reasons:

(a) it runs only in a forked worker or behind a real socket, and the
    reason names the tier-1 test that covers it;
(b) ``bench/`` calls it;
(c) a paper experiment under ``benchmarks/`` or an ``examples/`` script
    calls it;
(d) it is a reference implementation a named test compares against;
(e) a named test needs it to observe a behaviour.

Each reason is checked: every file it names exists, one of them uses
the name (``.name``, ``name(`` or ``= name``; a mention in prose is not a
use), and the file its kind needs — a test for (a), (d) and (e),
``bench/`` for (b), ``benchmarks/`` or ``examples/`` for (c) — is among
them.  A ``KEPT`` name the run enters fails the test too.  A function
nested in one the run never enters is covered by its parent.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import functools
import io
import os
import re
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.client.applet import MemexApplet, replay_events
from repro.core import MemexSystem
from repro.core.api import corpus_fetcher
from repro.core.memex import MemexServer
from repro.obs import Tracer, shipping
from repro.obs.shipping import LogShipper, read_shipped_records
from repro.obs.top import run_top
from repro.server.transport import HttpTunnelTransport
from repro.shard.gather import LocalBackend, ShardDispatcher
from repro.webgen import build_workload

from .test_servlet_table import FOLDER, MALFORMED, REQUESTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(repro.__file__).resolve().parent
#: The file a reason of each kind must name among its evidence.
_KINDS = {
    "a": ("tests/",),
    "b": ("bench/",),
    "c": ("benchmarks/", "examples/"),
    "d": ("tests/",),
    "e": ("tests/",),
}
_FILES = re.compile(r"(?:src|tests|bench|benchmarks|examples)/[\w/]+\.py")


def _kept(*groups: tuple[str, ...]) -> dict[str, str]:
    """``{name: reason}`` from ``(reason, name, name, ...)`` groups."""
    return {name: reason for reason, *names in groups for name in names}


#: Functions the run never enters, by reason; see the module docstring.
KEPT = _kept(
    # -- (a) behind a real socket or in a forked worker ------------------------
    ("(a) the socket server: src/repro/server/netserver.py, "
     "src/repro/core/memex.py (listen); tests/test_server_netserver.py",
     "core.memex:MemexServer.listen",
     "server.netserver:DictKeySource.__init__",
     "server.netserver:DictKeySource.key_for",
     "server.netserver:DictKeySource.set_key",
     "server.netserver:MemexSocketServer.__enter__",
     "server.netserver:MemexSocketServer.__exit__",
     "server.netserver:MemexSocketServer.__init__",
     "server.netserver:MemexSocketServer._accept_loop",
     "server.netserver:MemexSocketServer._read_frame",
     "server.netserver:MemexSocketServer._send",
     "server.netserver:MemexSocketServer._serve_connection",
     "server.netserver:MemexSocketServer._try_send_error",
     "server.netserver:MemexSocketServer._worker_loop",
     "server.netserver:MemexSocketServer.close",
     "server.protocol:frame_encrypted",
     "server.protocol:frame_length",
     "server.protocol:recv_exact",
     "server.protocol:recv_frame"),
    ("(a) the socket client: src/repro/server/transport.py, "
     "src/repro/shard/supervisor.py; tests/test_server_netserver.py, "
     "tests/test_client_pool.py",
     "server.transport:SocketTransport.__enter__",
     "server.transport:SocketTransport.__exit__",
     "server.transport:SocketTransport.__init__",
     "server.transport:SocketTransport._borrow",
     "server.transport:SocketTransport._count",
     "server.transport:SocketTransport._discard",
     "server.transport:SocketTransport._exchange",
     "server.transport:SocketTransport._give_back",
     "server.transport:SocketTransport._open",
     "server.transport:SocketTransport.close",
     "server.transport:SocketTransport.key_for",
     "server.transport:SocketTransport.request",
     "server.transport:SocketTransport.request_batch",
     "server.transport:SocketTransport.reset_backoff",
     "server.transport:SocketTransport.set_address",
     "server.transport:SocketTransport.set_key",
     "server.transport:_Connection.__init__",
     "server.transport:_Connection.closed_by_peer"),
    ("(a) the forked cluster: src/repro/shard/cluster.py, "
     "src/repro/shard/router.py, src/repro/shard/supervisor.py, "
     "src/repro/shard/worker.py, src/repro/cli.py; "
     "tests/test_shard_cluster.py, tests/test_shard_recovery.py, "
     "tests/test_obs_cluster.py",
     "cli:_serve_cluster",
     "shard.cluster:MemexCluster.__enter__",
     "shard.cluster:MemexCluster.__exit__",
     "shard.cluster:MemexCluster.__init__",
     "shard.cluster:MemexCluster._check_supervisor",
     "shard.cluster:MemexCluster.address",
     "shard.cluster:MemexCluster.close",
     "shard.cluster:MemexCluster.connect",
     "shard.cluster:MemexCluster.health_report",
     "shard.cluster:MemexCluster.metrics_pull",
     "shard.cluster:MemexCluster.n_shards",
     "shard.cluster:MemexCluster.quiesce",
     "shard.cluster:MemexCluster.register_user",
     "shard.cluster:MemexCluster.replay",
     "shard.cluster:MemexCluster.request",
     "shard.cluster:MemexCluster.stats",
     "shard.router:ShardRouter.__enter__",
     "shard.router:ShardRouter.__exit__",
     "shard.router:ShardRouter.__init__",
     "shard.router:ShardRouter.address",
     "shard.router:ShardRouter.close",
     "shard.router:ShardRouter.dispatch",
     "shard.router:ShardRouter.n_shards",
     "shard.router:ShardRouter.set_key",
     "shard.router:ShardRouter.stats",
     "shard.supervisor:ShardSupervisor.__enter__",
     "shard.supervisor:ShardSupervisor.__exit__",
     "shard.supervisor:ShardSupervisor.__init__",
     "shard.supervisor:ShardSupervisor._await_ready",
     "shard.supervisor:ShardSupervisor._drain_ready_message",
     "shard.supervisor:ShardSupervisor._probe",
     "shard.supervisor:ShardSupervisor._reap",
     "shard.supervisor:ShardSupervisor._spawn",
     "shard.supervisor:ShardSupervisor.available",
     "shard.supervisor:ShardSupervisor.health_detail",
     "shard.supervisor:ShardSupervisor.kill",
     "shard.supervisor:ShardSupervisor.n_shards",
     "shard.supervisor:ShardSupervisor.poll",
     "shard.supervisor:ShardSupervisor.quiesce",
     "shard.supervisor:ShardSupervisor.start",
     "shard.supervisor:ShardSupervisor.start_monitor",
     "shard.supervisor:ShardSupervisor.statuses",
     "shard.supervisor:ShardSupervisor.stop",
     "shard.supervisor:ShardSupervisor.transports",
     "shard.supervisor:_Shard.__init__",
     "shard.supervisor:_describe_exit",
     "shard.worker:_release_inherited_sockets",
     "shard.worker:worker_main"),
    ("(a) the chaos hooks of a forked cluster: "
     "tests/test_loadgen_chaos.py, tests/test_shard_cluster.py",
     "shard.supervisor:ShardSupervisor.tear_wal_tail",
     "shard.supervisor:ShardSupervisor.wait_until_up",
     "shard.supervisor:ShardSupervisor.wal_paths"),
    ("(a) `repro serve` listens on a socket: src/repro/cli.py; "
     "tests/test_cli.py",
     "cli:cmd_serve"),
    ("(a) `repro top` reads a socket: src/repro/cli.py binds it; "
     "tests/test_obs_cluster.py covers run_top, its loop",
     "cli:cmd_top"),
    # -- (b) bench/ --------------------------------------------------------------
    ("(b) bench/ladder.py clears every read cache before each cold rung "
     "and syncs them: src/repro/cache/versioned.py",
     "cache.versioned:ReadPathCaches.clear",
     "cache.versioned:ReadPathCaches.sync",
     "cache.versioned:VersionedCache.clear"),
    ("(b) bench/ladder.py times the search cache's get and invalidate",
     "cache.versioned:VersionedCache.get",
     "cache.versioned:VersionedCache.invalidate"),
    ("(b) bench/ladder.py finds a user's shard",
     "shard.gather:ShardDispatcher.shard_for"),
    ("(b) bench/ladder.py opens the engine and walks the term store",
     "storage.engine:open_engine",
     "text.index:InvertedIndex.add_document",
     "text.index:InvertedIndex.terms"),
    ("(b) bench/workloads.py builds the loadgen schedule: "
     "src/repro/loadgen/schedule.py, src/repro/webgen/population.py; "
     "tests/test_loadgen.py",
     "loadgen.schedule:LoadSchedule.counts",
     "loadgen.schedule:LoadSchedule.digest",
     "loadgen.schedule:LoadSchedule.from_json",
     "loadgen.schedule:LoadSchedule.offered_rate",
     "loadgen.schedule:LoadSchedule.to_json",
     "loadgen.schedule:LoadSchedule.users",
     "loadgen.schedule:ScheduledRequest.to_json",
     "loadgen.schedule:_pages_by_topic",
     "loadgen.schedule:_topic_terms",
     "loadgen.schedule:build_schedule",
     "loadgen.schedule:merge_schedules",
     "webgen.population:DiurnalCurve.__init__",
     "webgen.population:DiurnalCurve.max_rate",
     "webgen.population:DiurnalCurve.rate",
     "webgen.population:FlashCrowd.__init__",
     "webgen.population:FlashCrowd.active",
     "webgen.population:FlashCrowd.boost",
     "webgen.population:ZipfPopulation.__init__",
     "webgen.population:ZipfPopulation.interests",
     "webgen.population:ZipfPopulation.sample_rank",
     "webgen.population:ZipfPopulation.sample_user",
     "webgen.population:ZipfPopulation.user_id",
     "webgen.population:_stable_seed",
     "webgen.population:arrival_times",
     "webgen.corpus:WebCorpus.by_topic"),
    ("(b) bench/run.py diffs two metrics pulls",
     "obs.metrics:diff_snapshots"),
    # -- (c) experiments and examples -----------------------------------------------
    ("(c) examples/bookmark_import.py imports a bookmark file, files it "
     "and exports the served folder tab: src/repro/folders/importer.py, "
     "src/repro/folders/netscape.py, src/repro/folders/explorer.py",
     "folders.explorer:export_favorites",
     "folders.importer:bookmarks_to_payload",
     "folders.importer:export_explorer_favorites",
     "folders.importer:export_netscape_file",
     "folders.importer:folders_to_bookmarks",
     "folders.importer:import_netscape_file",
     "folders.netscape:parse_bookmarks",
     "folders.netscape:write_bookmarks",
     "client.applet:MemexApplet.import_bookmarks",
     "client.applet:MemexApplet.move_bookmark",
     "client.applet:MemexApplet.folder_view"),
    ("(c) examples/archive_modes.py browses through a Browser: "
     "src/repro/client/applet.py, src/repro/client/browser.py; "
     "tests/test_client.py",
     "client.applet:MemexApplet._on_navigate",
     "client.applet:MemexApplet.set_archive_mode",
     "client.browser:Browser.__init__",
     "client.browser:Browser.add_listener",
     "client.browser:Browser.clear_history",
     "client.browser:Browser.history",
     "client.browser:Browser.location",
     "client.browser:Browser.navigate"),
    ("(c) examples/reorganize_links.py proposes and applies a hierarchy "
     "and renders it: src/repro/core/render.py, "
     "src/repro/mining/scatter_gather.py",
     "client.applet:MemexApplet.apply_organization",
     "client.applet:MemexApplet.propose_organization",
     "core.render:render_folder_view",
     "mining.scatter_gather:ScatterGatherSession.__init__",
     "mining.scatter_gather:ScatterGatherSession.clusters",
     "mining.scatter_gather:ScatterGatherSession.gather",
     "mining.scatter_gather:ScatterGatherSession.scatter",
     "mining.scatter_gather:ScatterGatherSession.working_set",
     "mining.scatter_gather:_assign_all"),
    ("(c) examples/community_themes.py and "
     "benchmarks/test_e5_theme_discovery.py report a community's themes: "
     "src/repro/core/organize.py",
     "client.applet:MemexApplet.recommendations",
     "core.community:CommunityReport.individual_themes",
     "core.community:CommunityReport.shared_themes",
     "core.organize:ProposedFolder.render",
     "mining.themes:ThemeTaxonomy.all_themes",
     "mining.themes:universal_baseline"),
    ("(c) benchmarks/conftest.py, benchmarks/test_e7_clustering.py and "
     "benchmarks/test_e8_baselines.py count the documents they classify "
     "and cluster into a vocabulary of their own: "
     "src/repro/text/vectorize.py",
     "text.vectorize:count_vector",
     "text.vectorize:text_vector"),
    ("(c) examples/quickstart.py shows the community's themes",
     "client.applet:MemexApplet.themes"),
    ("(c) examples/classical_music_recall.py and "
     "benchmarks/test_e6_motivating_queries.py ask the motivating queries",
     "client.applet:MemexApplet.interest_mates",
     "core.queries:QueryAnswer.found"),
    ("(c) benchmarks/test_e3_trail_replay.py opens the context tab",
     "client.applet:MemexApplet.context_view"),
    ("(c) benchmarks/test_e8_baselines.py scores the URL-overlap baseline",
     "core.profiles:url_overlap_similarity"),
    ("(c) benchmarks/test_e9_recommendation.py clusters users and scores "
     "precision at k",
     "core.recommend:cluster_users",
     "mining.evaluation:precision_at_k"),
    ("(c) benchmarks/test_e7_clustering.py clusters with HAC and buckshot "
     "and scores them: src/repro/mining/hac.py",
     "mining.evaluation:normalized_mutual_information",
     "mining.evaluation:purity",
     "mining.hac:Dendrogram.cut",
     "mining.hac:_hac_pairwise",
     "mining.hac:cluster_vectors",
     "mining.scatter_gather:buckshot"),
    ("(c) benchmarks/test_ablations.py and "
     "benchmarks/test_e1_classifier_accuracy.py train and score the "
     "classifiers: src/repro/mining/hierarchical.py",
     "mining.evaluation:accuracy",
     "mining.hierarchical:HierarchicalClassifier.__init__",
     "mining.hierarchical:HierarchicalClassifier._walk",
     "mining.hierarchical:HierarchicalClassifier.classes",
     "mining.hierarchical:HierarchicalClassifier.fit",
     "mining.hierarchical:HierarchicalClassifier.level_accuracy",
     "mining.hierarchical:HierarchicalClassifier.predict",
     "mining.hierarchical:HierarchicalClassifier.predict_path",
     "mining.hierarchical:_TaxNode.is_leaf",
     "mining.hierarchical:_TaxNode.subtree_docs",
     "mining.linkfolder:EnhancedClassifier.classes",
     "mining.naive_bayes:NaiveBayesClassifier.predict",
     "mining.themes:ThemeTaxonomy.fit"),
    ("(c) benchmarks/conftest.py builds the bookmark data sets",
     "webgen.workload:bookmark_challenge_workload",
     "webgen.workload:labelled_bookmark_dataset"),
    ("(c) benchmarks/test_e4_server_pipeline.py measures version "
     "staleness and collection",
     "storage.versioning:VersionCoordinator.gc",
     "storage.versioning:VersionCoordinator.staleness"),
    ("(c) benchmarks/test_micro_storage.py measures the stores directly: "
     "src/repro/storage/kvstore.py",
     "storage.kvstore:KVStore.__contains__",
     "storage.kvstore:KVStore.__enter__",
     "storage.kvstore:KVStore.__exit__",
     "storage.kvstore:KVStore.__getitem__",
     "storage.kvstore:KVStore.__setitem__",
     "storage.kvstore:KVStore.put",
     "storage.relational:Database.__enter__",
     "storage.relational:Database.__exit__",
     "storage.relational:Database.insert_many",
     "storage.engine:Namespace.prefix"),
    ("(c) benchmarks/test_micro_text.py scopes a search to a document set",
     "text.index:InvertedIndex.document_ids"),
    ("(c) benchmarks/test_micro_obs.py measures the disabled instruments "
     "and trace contexts: src/repro/obs/metrics.py, "
     "src/repro/obs/tracing.py",
     "obs.metrics:MetricsRegistry.counter_value",
     "obs.metrics:_NullCounter.inc",
     "obs.metrics:_NullHistogram.observe",
     "obs.tracing:TraceContext.__eq__",
     "obs.tracing:TraceContext.__hash__",
     "obs.tracing:TraceContext.__repr__"),
    # -- (d) reference implementations ------------------------------------------------
    ("(d) the per-record crawler and dense daemon tests/mining_reference.py "
     "write with it; tests/test_server_group_commit.py compares: "
     "src/repro/storage/repository.py, src/repro/storage/engine.py",
     "storage.engine:Namespace.put",
     "storage.repository:MemexRepository._upsert_page_locked",
     "storage.repository:MemexRepository.add_link",
     "storage.repository:MemexRepository.upsert_page",
     "storage.versioning:VersionCoordinator.abort_version"),
    ("(d) tests/profiles_reference.py builds the profiles the served ones "
     "are compared with",
     "core.profiles:UserProfile.to_payload"),
    # -- (e) tests that need them to observe a behaviour -------------------------------
    ("(e) tests/test_cache.py: the cache's size",
     "cache.versioned:VersionedCache.__len__"),
    ("(e) tests/test_text_vectorize.py, tests/test_restart_equivalence.py "
     "and tests/test_retrieval_server.py: the vocabulary's size",
     "text.vocabulary:Vocabulary.__len__"),
    ("(e) the applet's calls tests/test_core_integration.py, "
     "tests/test_edge_cases.py, tests/test_client.py and "
     "tests/test_core_sessions_render.py make",
     "client.applet:MemexApplet.bill",
     "client.applet:MemexApplet.import_history",
     "client.applet:MemexApplet.new_session",
     "client.applet:MemexApplet.popular_near_trail",
     "client.applet:MemexApplet.resources",
     "client.browser:Browser.back",
     "client.browser:Browser.forward"),
    ("(e) tests/test_folders_interchange.py: Explorer favorites and "
     "bookmark trees read back: src/repro/folders/explorer.py, "
     "src/repro/folders/netscape.py",
     "folders.explorer:import_favorites",
     "folders.explorer:parse_url_file",
     "folders.explorer:write_url_file",
     "folders.netscape:BookmarkNode.total_bookmarks",
     "folders.netscape:BookmarkNode.walk"),
    ("(e) tests/test_mining_classifiers.py: feature selection: "
     "src/repro/mining/features.py",
     "mining.features:fisher_scores",
     "mining.features:project",
     "mining.features:select_features"),
    ("(e) tests/test_obs.py, tests/test_obs_logging_health.py, "
     "tests/test_obs_propagation.py, tests/test_obs_cluster.py and "
     "tests/test_server_scheduler.py drive time and read what was "
     "recorded: src/repro/obs/clock.py, src/repro/obs/logging.py, "
     "src/repro/obs/metrics.py, src/repro/obs/tracing.py",
     "obs.clock:ManualClock.__call__",
     "obs.clock:ManualClock.__init__",
     "obs.clock:ManualClock.advance",
     "obs.logging:LogHub.clear",
     "obs.logging:LogHub.detach",
     "obs.logging:Logger.warn",
     "obs.logging:null_log_hub",
     "obs.logging:null_logger",
     "obs.metrics:MetricsRegistry.gauge_value",
     "obs.metrics:_NullHistogram.percentile",
     "obs.metrics:_NullHistogram.raw",
     "obs.metrics:_NullHistogram.summary",
     "obs.metrics:null_registry",
     "obs.tracing:Tracer.clear",
     "obs.tracing:Tracer.current",
     "obs.tracing:Tracer.detach",
     "obs.tracing:Tracer.finished",
     "obs.tracing:Tracer.trace"),
    ("(e) tests/test_shared_response.py: a cached response is read-only "
     "and pickles as a dict: src/repro/server/protocol.py",
     "server.protocol:SharedResponse.__reduce__",
     "server.protocol:SharedResponse._read_only"),
    ("(e) tests/test_server_scheduler.py and "
     "tests/test_obs_logging_health.py: a failing daemon is quarantined, "
     "paroled and lifted: src/repro/server/scheduler.py",
     "server.scheduler:DaemonScheduler._parole",
     "server.scheduler:DaemonScheduler._quarantine",
     "server.scheduler:DaemonScheduler.lift_quarantine"),
    ("(e) tests/test_servlet_table.py: the registry's rows",
     "server.servlets:ServletRegistry.names"),
    ("(e) tests/test_server_protocol.py and tests/test_shared_response.py: "
     "the tunnel's keys and an envelope's failure replicated per item: "
     "src/repro/server/transport.py",
     "server.transport:HttpTunnelTransport.key_for",
     "server.transport:replicate_envelope_failure"),
    ("(e) tests/test_shard_gather.py: a shard that is down: "
     "src/repro/shard/gather.py",
     "shard.gather:_unavailable"),
    ("(e) tests/test_shard_gather.py: a page two shards rank stays in "
     "the trail: src/repro/shard/merge.py",
     "shard.merge:merge_pages.combine"),
    ("(e) tests/test_storage_relational.py, tests/test_storage_kvstore.py, "
     "tests/test_storage_wal.py, tests/test_storage_engines.py and "
     "tests/test_core_profiles_incremental.py: the stores' own contracts: "
     "src/repro/storage/relational.py, src/repro/storage/kvstore.py, "
     "src/repro/storage/engine.py, src/repro/storage/wal.py",
     "storage.engine:Namespace.__contains__",
     "storage.engine:Namespace.__getitem__",
     "storage.engine:Namespace.__len__",
     "storage.engine:Namespace.__setitem__",
     "storage.engine:Namespace.clear",
     "storage.engine:Namespace.delete",
     "storage.engine:Namespace.discard",
     "storage.kvstore:KVStore.delete",
     "storage.kvstore:KVStore.discard",
     "storage.kvstore:KVStore.keys",
     "storage.relational:Database._checkpoint_records",
     "storage.relational:Database.delete",
     "storage.relational:Database.tables",
     "storage.relational:Table.__contains__",
     "storage.relational:Transaction.abort",
     "storage.wal:WriteAheadLog.__enter__",
     "storage.wal:WriteAheadLog.__exit__",
     "storage.wal:WriteAheadLog.closed"),
    ("(e) tests/test_storage_repository.py and "
     "tests/test_core_profiles_incremental.py: a repository's writes: "
     "src/repro/storage/repository.py",
     "storage.repository:MemexRepository.__enter__",
     "storage.repository:MemexRepository.__exit__",
     "storage.repository:MemexRepository.dissociate"),
    ("(e) tests/test_retrieval_covisit.py: decayed pairs are pruned: "
     "src/repro/retrieval/covisit.py",
     "storage.repository:MemexRepository.prune_covisits"),
    ("(e) tests/test_retrieval_covisit.py sets a short half-life (the "
     "served one is computed once, at import): "
     "src/repro/retrieval/covisit.py",
     "retrieval.covisit:half_life_to_decay"),
    ("(e) tests/test_core_profiles_incremental.py and tests/test_webgen.py "
     "open systems with `with`",
     "core.api:MemexSystem.__enter__",
     "core.api:MemexSystem.__exit__"),
)


# -- what exists ----------------------------------------------------------------

def functions(package: Path = PACKAGE) -> dict[str, tuple[str, int, str | None]]:
    """``{"module:Qual.name": (path, first line, enclosing function)}`` for
    every function and method under *package*."""
    found: dict[str, tuple[str, int, str | None]] = {}

    def visit(node, path, module, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _declaration(child):
                    continue
                name = f"{module}:{prefix}{child.name}"
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[name] = (path, first, parent)
                visit(child, path, module, f"{prefix}{child.name}.", name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, module, f"{prefix}{child.name}.", parent)
            else:
                visit(child, path, module, prefix, parent)

    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        visit(ast.parse(path.read_text()), str(path), module, "", None)
    return found


def _declaration(node) -> bool:
    """A ``Protocol`` method: nothing but a docstring and ``...``."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (len(body) == 1 and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and body[0].value.value is Ellipsis)


def never_entered(found, entered: set[tuple[str, int]]) -> list[str]:
    """The functions of *found* not in *entered*, less those nested in a
    function that was never entered either."""
    missed = {name for name, (path, line, _) in found.items()
              if (path, line) not in entered}
    return sorted(name for name in missed if found[name][2] not in missed)


def unkept(missed: list[str], kept: dict[str, str]) -> list[str]:
    return [name for name in missed if name not in kept]


def _called(name: str, text: str) -> bool:
    """Whether *text* uses *name*: reads it as an attribute (``.name``),
    calls it (``name(`` but not ``def name(``) or assigns or passes it
    (``= name``).  A word in prose is not a use.  A dunder method is used
    where its class is."""
    qual = name.split(":", 1)[1].split(".")
    word = re.escape(
        qual[-2] if qual[-1].startswith("__") and len(qual) > 1 else qual[-1])
    use = rf"\.{word}(?!\w)|(?<!def )(?<![\w.]){word}\(|=\s*{word}(?!\w)"
    return re.search(use, text) is not None


@functools.cache
def _source(path: str) -> str:
    return (ROOT / path).read_text()


def kept_problems(found, missed: list[str], kept: dict[str, str]) -> list[str]:
    """What is wrong with *kept*: names that do not exist or that the run
    enters, and reasons that do not hold."""
    problems = []
    for name, reason in sorted(kept.items()):
        if name not in found:
            problems.append(f"{name}: no such function")
            continue
        if name not in missed:
            problems.append(f"{name}: the run enters it")
            continue
        kind = re.match(r"\(([a-e])\) ", reason)
        files = _FILES.findall(reason)
        if kind is None or not files:
            problems.append(f"{name}: a reason is '(a)'..'(e)' and names files")
            continue
        if not any(path.startswith(_KINDS[kind.group(1)]) for path in files):
            problems.append(f"{name}: ({kind.group(1)}) names no "
                            f"{' or '.join(_KINDS[kind.group(1)])} file")
        texts = []
        for path in files:
            if not (ROOT / path).is_file():
                problems.append(f"{name}: {path} does not exist")
                continue
            texts.append(_source(path))
        if texts and not any(_called(name, text) for text in texts):
            problems.append(f"{name}: none of {files} calls it")
    return problems


# -- what runs ------------------------------------------------------------------

def _seeded_pair(workload, root):
    """The workload replayed into one on-disk ``sync=True`` server and
    into two in-memory servers behind an in-process dispatcher."""
    one = MemexSystem.from_workload(workload, root=str(root / "one"), sync=True)
    shipper = LogShipper(root / "data" / "shard-00" / "logs" / "worker.jsonl",
                         shard="0")
    one.server.logs.attach(shipper.log_sink)
    one.server.tracer.attach(shipper.span_sink)
    one.replay(workload.events)
    fetch = corpus_fetcher(workload.corpus)
    servers = [MemexServer(fetch) for _ in range(2)]
    dispatcher = ShardDispatcher(
        [LocalBackend(s.registry) for s in servers], tracer=Tracer())
    two = HttpTunnelTransport(servers[0].registry, dispatcher=dispatcher)
    for profile in workload.profiles:
        two.request(profile.user_id, {
            "servlet": "register_user", "community": workload.name})
    replay_events(
        workload.events, lambda user: MemexApplet(two, user),
        batch_size=32, tick_every=100,
        on_tick=lambda: [server.tick() for server in servers])
    return one, shipper, servers, dispatcher, two


def _ask_everything(transport, user):
    for name, fields in REQUESTS.items():
        sender = "newcomer" if name == "register_user" else user
        transport.request(sender, {"servlet": name, **fields})
    # REQUESTS' writes moved the clock past the replay: a trail on a
    # folder that has one needs a window reaching back over it.
    for name in ("trail", "popular_near_trail"):
        transport.request(user, {
            "servlet": name, "folder_path": FOLDER, "window_days": 365})
    for mode in ("ranked", "boolean", "hybrid"):
        for scope in ("all", "mine", "community"):
            for offset in (0, 10):
                transport.request(user, {
                    "servlet": "search", "query": "compiler optimization",
                    "mode": mode, "scope": scope, "offset": offset})
    for name, bad in MALFORMED:
        transport.request(user, {"servlet": name, **REQUESTS[name], **bad})
    traced = {"servlet": "search", "query": "compiler",
              "traceparent": f"00-{'ab' * 16}-{'cd' * 8}-01"}
    for payload in (traced, {**traced, "traceparent": f"00-{'zz' * 16}-{'cd' * 8}-01"},
                    {"servlet": "stats", "include_metrics": True,
                     "include_spans": True, "include_logs": True},
                    {"servlet": "no_such_servlet"},
                    {"servlet": "batch", "requests": ["x", {"servlet": "batch"}]}):
        transport.request(user, payload)
    transport.request_batch(user, [
        {"servlet": "visit", "url": REQUESTS["visit"]["url"], "at": 9e6 + 9,
         "traceparent": traced["traceparent"]},
        {"servlet": "themes_get", "traceparent": traced["traceparent"]},
        {"servlet": "visit", "url": 1}])
    transport._serve(b"\x00\x00\x00\x01?", user)
    transport.set_key("keyed", b"memex-rc4-key")
    transport.request("keyed", {"servlet": "register_user", "community": "c"})
    transport.request("keyed", {"servlet": "search", "query": "compiler"})
    run_top(lambda payload: transport.request(user, payload),
            iterations=2, sleep=lambda seconds: None, clear=False)


def _drive(root: Path) -> None:
    workload = build_workload(seed=5, num_users=4, days=6.0, pages_per_leaf=5)
    one, shipper, servers, dispatcher, two = _seeded_pair(workload, root)
    user = workload.profiles[0].user_id
    try:
        for transport in (one.server.transport, two):
            _ask_everything(transport, user)
        for server in (one.server, *servers):
            server.process_background_work()
    finally:
        shipper.close()
        dispatcher.close()
        one.close()
        for server in servers:
            server.close()
    with MemexServer(corpus_fetcher(workload.corpus), root=str(root / "one"),
                     sync=True) as again:
        again.restore_state()
        _ask_everything(again.transport, user)
    data = str(root / "data")
    trace_id = read_shipped_records(data, kind="span")[0]["trace_id"]
    small = ["--seed", "5", "--users", "2", "--days", "3", "--pages-per-leaf", "3"]
    for argv in (["generate", *small], ["experiments"],
                 ["stats", *small, "--logs"], ["demo", *small],
                 ["queries", *small, "--user", "user01"],
                 ["trace", trace_id, "--data-dir", data],
                 ["trace", "0" * 32, "--data-dir", data],
                 ["logs", "--data-dir", data, "--level", "info"],
                 ["logs", "--data-dir", data, "--spans", "--trace", trace_id]):
        main(argv)


def entered_by(run) -> set[tuple[str, int]]:
    """``(path, first line)`` of every code object *run* enters.

    The calling thread is watched through :mod:`cProfile`, whose hook is
    ``sys.setprofile``'s without a Python call per event (a third of the
    cost); threads *run* starts get a ``threading.setprofile`` hook.
    """
    codes = set()

    def record(frame, event, arg):
        codes.add(frame.f_code)

    profile = cProfile.Profile()
    threading.setprofile(record)
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
        threading.setprofile(None)
    codes.update(entry.code for entry in profile.getstats()
                 if not isinstance(entry.code, str))
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


@pytest.fixture(scope="module")
def entered(tmp_path_factory) -> set[tuple[str, int]]:
    root = tmp_path_factory.mktemp("reach")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out), \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(shipping, "MAX_BYTES", 4096)   # the shipper rotates
        return entered_by(lambda: _drive(root))


@pytest.fixture(scope="module")
def found():
    return functions()


# -- the rule -------------------------------------------------------------------

def test_every_function_is_entered_or_kept(found, entered):
    missed = unkept(never_entered(found, entered), KEPT)
    assert missed == [], (
        f"{len(missed)} functions under src/repro are never entered by a "
        "server, a 2-shard router or the CLI: delete them, or name them in "
        f"KEPT with a reason of kind (a)-(e): {missed}")


def test_every_kept_reason_holds(found, entered):
    assert kept_problems(found, never_entered(found, entered), KEPT) == []


# -- the audit catches what it should ---------------------------------------------

def test_a_planted_helper_nobody_calls_is_caught(tmp_path, found, entered):
    core = tmp_path / "core"
    core.mkdir()
    (core / "planted.py").write_text(
        "def used():\n    return 1\n\n\n@staticmethod\ndef unused_helper():\n"
        "    return 2\n")
    planted = functions(tmp_path)
    assert planted["core.planted:unused_helper"][1] == 5   # its decorator line
    ran = entered | {(str(core / "planted.py"), 1)}
    assert unkept(never_entered({**found, **planted}, ran), KEPT) == [
        "core.planted:unused_helper"]


def test_a_kept_name_the_run_enters_is_caught(found, entered):
    missed = never_entered(found, entered)
    kept = {**KEPT, "core.archive:serve_visit": "(e) tests/test_servlet_table.py"}
    assert kept_problems(found, missed, kept) == [
        "core.archive:serve_visit: the run enters it"]


def test_a_reason_whose_file_does_not_call_the_name_is_caught(found, entered):
    missed = never_entered(found, entered)
    kept = {**KEPT, "obs.clock:ManualClock.advance": "(e) tests/test_cache.py"}
    assert kept_problems(found, missed, kept) == [
        "obs.clock:ManualClock.advance: none of ['tests/test_cache.py'] calls it"]


def test_a_reason_whose_file_names_the_function_only_in_prose_is_caught(
        tmp_path, monkeypatch, found, entered):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "prose.py").write_text(
        '"""The supervisor\'s wal_paths lists a shard\'s logs."""\n'
        "# wal_paths is only named here, never used.\n")
    monkeypatch.setattr(f"{__name__}.ROOT", tmp_path)
    kept = {"shard.supervisor:ShardSupervisor.wal_paths": "(e) tests/prose.py"}
    assert kept_problems(found, never_entered(found, entered), kept) == [
        "shard.supervisor:ShardSupervisor.wal_paths: "
        "none of ['tests/prose.py'] calls it"]
