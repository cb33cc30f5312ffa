"""MemexServer: the full server wired together.

One object owning the repositories (Figure 3's data stores), the daemon
fleet, and the servlet registry the HTTP tunnel dispatches into.  UI
servlets run synchronously (the "guaranteed immediate processing" class of
events); mining happens when the host ticks the daemon scheduler.  What
each servlet does lives beside the code it calls (``archive``, ``search``,
``trails``, ...); :mod:`.servlet_table` declares them and this module
registers the table's rows.

Time is simulation time: the server's clock advances to the latest event
timestamp it has seen, so replays are deterministic.
"""

from __future__ import annotations

import threading

from collections.abc import Callable, Hashable
from typing import Any

from ..cache import ReadPathCaches
from ..mining.themes import ThemeTaxonomy
from ..obs import (
    HealthMonitor,
    LogHub,
    MetricsRegistry,
    Tracer,
)
from ..server.daemons import (
    ClassifierDaemon,
    CrawlerDaemon,
    DiscoveryDaemon,
    FetchFn,
    IndexerDaemon,
    PageVectorizer,
    ThemeDaemon,
)
from ..retrieval.covisit import CoVisitMinerDaemon
from ..retrieval.dense import DenseIndexDaemon, DenseVectorIndex
from ..server.scheduler import DaemonScheduler
from ..server.servlets import Handler, ServletRegistry
from ..server.netserver import MemexSocketServer
from ..server.protocol import SharedResponse
from ..server.transport import HttpTunnelTransport
# gather before the table: the table's own import of repro.shard.merge
# must find the shard package already initialising from here.
from ..shard.gather import LocalBackend, ShardDispatcher
from ..storage.repository import MemexRepository
from ..text.index import InvertedIndex
from ..text.search import SearchEngine
from .profiles import PageThemes, UserProfile, build_profile
from .request import require_user
# The fusion constants moved with the search handler; bench/ladder.py
# imports them from this module.
from .search import COVISIT_SEEDS, FUSE_DEPTH, HYBRID_WEIGHTS, PRF_FEEDBACK  # noqa: F401
from .servlet_table import SERVLETS, Servlet

#: A dispatch slower than this (seconds, the metrics clock) logs its full
#: span tree as a ``slow_request`` event.
SLOW_REQUEST_S = 1.0
#: The ``versioning`` readiness check degrades when any consumer lags more
#: than this many published versions.
VERSIONING_LAG_THRESHOLD = 64


class MemexServer:
    """The Memex service for one community.

    Parameters
    ----------
    fetch:
        The crawler's view of the Web (see
        :func:`repro.core.api.corpus_fetcher` for the simulated one).
    root:
        Directory for persistent state; None keeps everything in memory.
    metrics / tracer:
        The server's observability hooks.  By default a fresh enabled
        :class:`MetricsRegistry` and :class:`Tracer` are created; pass
        ``MetricsRegistry(enabled=False)`` to opt out of measurement, or
        a registry with an injected clock for deterministic tests.  One
        :class:`LogHub` (``server.logs``) is shared by every component
        (servlets, scheduler, daemons, versioning) so ``stats`` can
        return one merged, trace-correlated event stream.
    """

    def __init__(
        self,
        fetch: FetchFn,
        *,
        root: str | None = None,
        sync: bool = False,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Default tracer samples 1-in-8 top-level spans: full traces for
        # debugging at a fraction of the per-dispatch cost.
        self.tracer = tracer if tracer is not None else Tracer(sample_every=8)
        self.logs = LogHub(clock=self.metrics.clock)
        self._now = 0.0
        # The repository stamps rows with simulation time, the same clock
        # servlets advance — replays stay deterministic.  ``sync`` turns on
        # fsync-per-commit durability (requires a ``root``).
        self.repo = MemexRepository(
            root, sync=sync, clock=lambda: self._now, metrics=self.metrics,
            tracer=self.tracer, log_hub=self.logs,
        )
        self.vectorizer = PageVectorizer(self.repo)
        self.index = InvertedIndex(self.repo.kv)
        self.search_engine = SearchEngine(self.index)

        clock = lambda: self._now  # noqa: E731 - tiny closure over sim time
        self.crawler = CrawlerDaemon(
            self.repo, fetch, clock=clock,
            tracer=self.tracer, log=self.logs.logger("crawler"),
        )
        self.indexer = IndexerDaemon(
            self.repo, self.index, vectorizer=self.vectorizer,
            tracer=self.tracer, log=self.logs.logger("indexer"),
        )
        # Hybrid-retrieval plane (DESIGN.md §13): the exact-scan dense
        # index and its consumer daemon, plus the co-visitation miner.
        self.dense_index = DenseVectorIndex(self.repo.kv)
        self.dense = DenseIndexDaemon(
            self.repo, self.vectorizer, self.dense_index,
        )
        self.covisit = CoVisitMinerDaemon(self.repo, clock=clock)
        self.classifier = ClassifierDaemon(
            self.repo, self.vectorizer, clock=clock,
            tracer=self.tracer, log=self.logs.logger("classifier"),
        )
        self.themes = ThemeDaemon(self.repo, self.vectorizer)
        self.discovery = DiscoveryDaemon(
            self.repo, self.vectorizer, self.themes,
            crawler=self.crawler, clock=clock,
        )
        self.scheduler = DaemonScheduler(
            metrics=self.metrics, tracer=self.tracer,
            log=self.logs.logger("scheduler"),
        )
        self.scheduler.register(self.crawler, period=1)
        self.scheduler.register(self.indexer, period=1)
        self.scheduler.register(self.dense, period=1)
        self.scheduler.register(self.covisit, period=2)
        self.scheduler.register(self.classifier, period=2)
        self.scheduler.register(self.themes, period=8)
        self.scheduler.register(self.discovery, period=8)

        # Read-path caches watch the indexer/classifier/dense consumers,
        # so those daemons must be registered first.  ``None`` switches
        # read caching off: the uncached reference the differential tests
        # compare against.
        self.caches: ReadPathCaches | None = ReadPathCaches(
            self.repo.versions, metrics=self.metrics,
        )

        self.registry = ServletRegistry(
            metrics=self.metrics, tracer=self.tracer,
            log=self.logs.logger("servlets"),
            slow_request_threshold=SLOW_REQUEST_S,
        )
        for row in SERVLETS.values():
            batch = row.batch
            self.registry.register(
                row.name, self._bind(row),
                batch_handler=None if batch is None else (
                    lambda requests, batch=batch: batch(self, requests)),
            )
        # Single-process mode is literally a one-shard cluster: every
        # request (tunnel or socket) routes through the same
        # ShardDispatcher the router uses, over one in-process backend.
        # With one healthy backend every merge is the identity, so this
        # is bit-identical to direct registry dispatch.
        self.dispatcher = ShardDispatcher([LocalBackend(self.registry)])
        self.transport = HttpTunnelTransport(
            self.registry, dispatcher=self.dispatcher,
        )

        # Health and SLO engine: liveness/readiness checks over the
        # components above, plus per-servlet burn-rate SLOs lazily bound
        # to the registry's latency/error instruments on first report
        # (a servlet's policy override goes in ``health.policies`` before
        # then).
        self.health = HealthMonitor(clock=self.metrics.clock)
        self.health.add_check("storage", self._check_storage)
        self.health.add_check("scheduler", self._check_scheduler)
        self.health.add_check("versioning", self._check_versioning)

        # (taxonomy, idf generation, user -> (engagement stamp, profile)):
        # replaced whole under the server lock, read without it.
        self._profiles: tuple[
            ThemeTaxonomy | None, int, dict[str, tuple[int, UserProfile]]
        ] = (None, -1, {})
        # Page -> (leaf theme, similarity) for the same (taxonomy, idf
        # generation) key; replaced whole, never invalidated.
        self._page_themes: PageThemes | None = None
        # Server lock ("server" rank in repro.locks.LOCK_ORDER, above the
        # repository lock it nests over): guards the simulation clock,
        # the publication of rebuilt profiles, and the server-level
        # check-then-act compounds (user registration, a history
        # import's session numbering) that span several repository calls.
        self._server_lock = threading.RLock()

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        return self._now

    def advance(self, at: float | None) -> float:
        """Move the clock up to *at* (never back); returns the time now."""
        if at is not None:
            with self._server_lock:
                self._now = max(self._now, float(at))
        return self._now

    # ------------------------------------------------------------- daemon API

    def process_background_work(self, *, max_rounds: int = 1000) -> int:
        """Run daemons until quiescent (tests and examples call this)."""
        return self.scheduler.run_until_idle(max_rounds=max_rounds)

    def tick(self, rounds: int = 1) -> int:
        """Run one scheduler round per *rounds*; returns work done."""
        return self.scheduler.tick(rounds)

    # ---------------------------------------------------------------- helpers

    def _bind(self, row: Servlet) -> Handler:
        """The registry handler for *row*: the row's function closed over
        this server, behind the user lookup where the row authenticates —
        so auth runs before the handler reads any request field."""
        handler = row.handler
        if not row.auth:
            return lambda request: handler(self, None, request)
        return lambda request: handler(
            self, require_user(self.repo, request), request)

    def origin(self) -> str | None:
        """Traceparent of the active servlet span, if the request is
        traced — stamped on visits, crawl queue entries, and versioning
        items so daemon spans link back to the originating request."""
        ctx = self.tracer.current_context()
        return ctx.to_traceparent() if ctx is not None else None

    def cached(
        self,
        name: str,
        key: Hashable,
        compute: Callable[[], dict[str, Any]],
        *,
        extra: Hashable = (),
    ) -> dict[str, Any]:
        """The response ``compute()`` builds, served through the response
        cache *name* (``search``, ``trails`` or ``related``) as one
        read-only :class:`SharedResponse` every hit returns; called
        directly when caching is off."""
        if self.caches is None:
            return compute()
        return getattr(self.caches, name).cached(
            key, lambda: SharedResponse(compute()), extra=extra)

    def _held_profiles(
        self, taxonomy: ThemeTaxonomy, num_docs: int,
    ) -> dict[str, tuple[int, UserProfile]]:
        """The kept ``user -> (engagement stamp, profile)`` entries if they
        were built from this taxonomy object at this idf generation."""
        held_taxonomy, held_docs, held = self._profiles
        if held_taxonomy is taxonomy and held_docs == num_docs:
            return held
        return {}

    def _held_page_themes(
        self, taxonomy: ThemeTaxonomy, num_docs: int,
    ) -> PageThemes:
        """The kept page-theme memo if it belongs to this taxonomy object
        at this idf generation, else a new one, published."""
        held = self._page_themes
        if (
            held is not None and held.taxonomy is taxonomy
            and held.num_docs == num_docs
        ):
            return held
        themes = PageThemes(self.vectorizer, taxonomy, num_docs)
        with self._server_lock:
            self._page_themes = themes
        return themes

    def _rebuild_moved_profiles(
        self, themes: PageThemes,
    ) -> dict[str, tuple[int, UserProfile]]:
        """``user -> (engagement stamp, profile)`` for every user: kept
        where the stamp stands, built (outside the server lock) where it
        moved or the user is new, and published if anything was built."""
        taxonomy, num_docs = themes.taxonomy, themes.num_docs
        held = self._held_profiles(taxonomy, num_docs)
        stamps = self.repo.stamps.engagement
        entries: dict[str, tuple[int, UserProfile]] = {}
        rebuilt = False
        for row in self.repo.db.table("users").scan():
            user_id = row["user_id"]
            # Stamp first, rows second: a write landing in between leaves
            # new rows under an old stamp (one rebuild too many), never
            # old rows under a new one.
            stamp = stamps.get(user_id, 0)
            entry = held.get(user_id)
            if entry is None or entry[0] != stamp:
                entry = (stamp, build_profile(self.repo, themes, user_id))
                rebuilt = True
            entries[user_id] = entry
        if rebuilt:
            with self._server_lock:
                # Another request may have published meanwhile: an older
                # stamp never replaces a newer one.
                for user_id, theirs in self._held_profiles(
                    taxonomy, num_docs,
                ).items():
                    mine = entries.get(user_id)
                    if mine is None or mine[0] < theirs[0]:
                        entries[user_id] = theirs
                self._profiles = (taxonomy, num_docs, entries)
        return entries

    def current_profiles(self) -> dict[str, UserProfile]:
        """Per-user theme profiles (see :meth:`profiles_and_themes`)."""
        return self.profiles_and_themes()[1]

    def profiles_and_themes(
        self,
    ) -> tuple[PageThemes | None, dict[str, UserProfile]]:
        """The page-theme memo of the taxonomy, and the per-user theme
        profiles built through it, as a from-scratch build over what is
        stored now would give them — one read of ``themes.taxonomy`` for
        both, so a caller scoring themes against profiles never straddles
        a ``ThemeDaemon`` swap.

        A profile reads three things, and each has its own signal: the
        user's visits and folder contents (that user's engagement stamp),
        the taxonomy (the object ``ThemeDaemon`` swaps in whole), and the
        idf weights (``vocab.num_docs``: they move when a page enters the
        mining vocabulary).  Only users whose stamp moved, or who
        registered since, are rebuilt; a new taxonomy or idf generation
        rebuilds everyone.  Each page is assigned to its theme once per
        taxonomy and idf generation, whoever's profile reads it first.  The
        build runs outside the server lock, so a visit's clock advance
        never waits on mining.
        """
        vectorizer = self.vectorizer
        entries: dict[str, tuple[int, UserProfile]] = {}
        for _ in range(2):
            taxonomy, num_docs = self.themes.taxonomy, vectorizer.num_docs
            if taxonomy is None:
                return None, {}
            themes = self._held_page_themes(taxonomy, num_docs)
            entries = self._rebuild_moved_profiles(themes)
            if vectorizer.num_docs == num_docs:
                break
            # A build vectorised a fetched page the indexer had not
            # reached, so idf moved under the users built before it (and
            # what was just published is a generation nobody will ask
            # for again).  Its pages are in the vocabulary now: once more.
        return themes, {
            user_id: profile for user_id, (_, profile) in entries.items()
        }

    # ---------------------------------------------------------------- health

    def _check_storage(self) -> tuple[bool, dict[str, Any]]:
        """Both stores answer a read — fails (via the monitor's exception
        trap) once either store is closed or unreadable."""
        users = len(self.repo.db.table("users"))
        self.repo.kv.get(b"__health_probe__")
        return True, {"users": users, "kv_keys": len(self.repo.kv)}

    def _check_scheduler(self) -> tuple[bool, dict[str, Any]]:
        quarantined = self.scheduler.quarantined()
        return not quarantined, {
            "quarantined": quarantined,
            "wedged": self.scheduler.wedged(),
        }

    def _check_versioning(self) -> tuple[bool, dict[str, Any]]:
        lags = self.repo.versions.lags()
        worst = max(lags.values(), default=0)
        return worst <= VERSIONING_LAG_THRESHOLD, {
            "lags": lags,
            "threshold": VERSIONING_LAG_THRESHOLD,
        }

    # ---------------------------------------------------------------- network

    def listen(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        idle_timeout: float = 30.0,
    ) -> MemexSocketServer:
        """Start serving the framed wire protocol over TCP.

        Returns the started :class:`MemexSocketServer`; its ``address``
        is the bound ``(host, port)``.  Per-user RC4 keys come from the
        in-process transport (:meth:`HttpTunnelTransport.key_for`), so a
        key set once applies to both the tunnel and the socket.  The
        caller owns the server's lifecycle (``close()`` drains it).
        """
        return MemexSocketServer(
            self.dispatcher,
            host=host,
            port=port,
            workers=workers,
            idle_timeout=idle_timeout,
            key_source=self.transport,
            metrics=self.metrics,
            log=self.logs.logger("netserver"),
        )

    # ---------------------------------------------------------------- lifecycle

    def restore_state(self) -> dict[str, int]:
        """Derive the mined state a reopened server holds only in memory
        from what is stored (DESIGN.md §11), as a server that never
        stopped holds it: the vocabulary re-counts every fetched page in
        catalog order, a page with no dense vector is embedded, the clock
        resumes at the catalog's latest timestamp, and every user whose
        filings qualify gets a classifier model; returns how many."""
        fetched = [
            row["url"] for row in self.repo.db.table("pages").scan()
            if row["fetched"]
        ]
        for url in fetched:
            self.vectorizer.vector(url)
        self.dense_index.add_many([
            (url, sparse) for url in fetched
            if self.dense_index.vector(url) is None
            and (sparse := self.vectorizer.tfidf_vector(url))
        ], self.vectorizer.vocab)
        self.advance(self.repo.latest_timestamp())
        return {"models": self.classifier.retrain()}

    def close(self) -> None:
        self.repo.close()

    def __enter__(self) -> "MemexServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
