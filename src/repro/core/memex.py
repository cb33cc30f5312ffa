"""MemexServer: the full server wired together.

One object owning the repositories (Figure 3's data stores), the daemon
fleet, and the servlet registry the HTTP tunnel dispatches into.  UI
servlets run synchronously (the "guaranteed immediate processing" class of
events); mining happens when the host ticks the daemon scheduler.

Time is simulation time: the server's clock advances to the latest event
timestamp it has seen, so replays are deterministic.
"""

from __future__ import annotations

import threading

from collections.abc import Callable, Hashable
from typing import Any

from ..cache import ReadPathCaches
from ..errors import AuthError, NotFitted, ServletError, error_payload
from ..mining.themes import ThemeDiscovery, ThemeTaxonomy
from ..obs import (
    HealthMonitor,
    LogHub,
    MetricsHistory,
    MetricsRegistry,
    SloPolicy,
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
from ..retrieval.covisit import CoVisitMinerDaemon, covisit_evidence, related_scores
from ..retrieval.dense import DenseIndexDaemon, DenseVectorIndex
from ..retrieval.fusion import canonical_url, rrf_fuse
from ..server.scheduler import DaemonScheduler
from ..server.servlets import ServletRegistry
from ..server.netserver import MemexSocketServer
from ..server.transport import HttpTunnelTransport
from ..shard.gather import LocalBackend, ShardDispatcher, search_options
from ..storage.repository import MemexRepository
from ..storage.schema import (
    ARCHIVE_COMMUNITY,
    ARCHIVE_OFF,
    ASSOC_BOOKMARK,
    ASSOC_CORRECTION,
    ASSOC_GUESS,
)
from ..text.index import InvertedIndex
from ..text.search import SearchEngine
from ..text.snippets import make_snippet
from ..text.vectorize import cosine, text_vector, tfidf
from .billing import bill_breakdown
from .context import context_neighborhood, recall_session
from .profiles import UserProfile, build_profile, similar_users
from .recommend import recommend_pages
from .trails import build_trail_graph, folder_and_descendants

DAY = 86_400.0

#: Reciprocal-rank-fusion weights for hybrid search (DESIGN.md §13):
#: lexical evidence leads, dense similarity seconds it, trail adjacency
#: contributes but cannot override a strong text match on its own.
HYBRID_WEIGHTS = {"lexical": 1.0, "dense": 0.8, "covisit": 0.6}
#: Depth of the dense/co-visit rankings fed into fusion.
FUSE_DEPTH = 50
#: Top lexical hits whose co-visitation neighborhoods seed the trail leg.
COVISIT_SEEDS = 10
#: Rocchio beta: how strongly the lexical top hits' dense centroid pulls
#: the projected query (pseudo-relevance feedback for short queries).
PRF_FEEDBACK = 0.75


class MemexServer:
    """The Memex service for one community.

    Parameters
    ----------
    fetch:
        The crawler's view of the Web (see
        :func:`repro.core.api.corpus_fetcher` for the simulated one).
    root:
        Directory for persistent state; None keeps everything in memory.
    theme_discovery:
        Tuning for the theme daemon.
    metrics / tracer / log_hub:
        The server's observability hooks.  By default a fresh enabled
        :class:`MetricsRegistry`, :class:`Tracer`, and :class:`LogHub`
        are created; pass ``MetricsRegistry(enabled=False)`` to opt out
        of measurement, or a registry with an injected clock for
        deterministic tests.  The log hub is shared by every component
        (servlets, scheduler, daemons, versioning) so ``stats`` can
        return one merged, trace-correlated event stream.
    slow_request_threshold:
        Requests slower than this (seconds, simulation clock) log their
        full span tree as a ``slow_request`` event; ``None`` disables.
    slo_policies:
        Per-servlet :class:`SloPolicy` overrides for the health engine
        (missing servlets get the default policy).
    versioning_lag_threshold:
        The ``versioning`` readiness check degrades when any consumer
        lags more than this many published versions.
    """

    def __init__(
        self,
        fetch: FetchFn,
        *,
        root: str | None = None,
        sync: bool = False,
        theme_discovery: ThemeDiscovery | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        log_hub: LogHub | None = None,
        slow_request_threshold: float | None = 1.0,
        slo_policies: dict[str, SloPolicy] | None = None,
        versioning_lag_threshold: int = 64,
        retrieval: bool = True,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Default tracer samples 1-in-8 top-level spans: full traces for
        # debugging at a fraction of the per-dispatch cost.
        self.tracer = tracer if tracer is not None else Tracer(sample_every=8)
        self.logs = log_hub if log_hub is not None else LogHub(
            clock=self.metrics.clock,
        )
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
            self.repo, fetch, batch_size=64, clock=clock,
            tracer=self.tracer, log=self.logs.logger("crawler"),
        )
        self.indexer = IndexerDaemon(
            self.repo, self.index, vectorizer=self.vectorizer,
            tracer=self.tracer, log=self.logs.logger("indexer"),
        )
        # Hybrid-retrieval plane (DESIGN.md §13): the dense ANN index and
        # its consumer daemon, plus the co-visitation miner.  ``retrieval=
        # False`` reverts to the purely lexical server — the differential
        # baseline BENCH_retrieval.json compares against.
        self.retrieval_enabled = retrieval
        self.dense_index: DenseVectorIndex | None = None
        self.dense: DenseIndexDaemon | None = None
        self.covisit: CoVisitMinerDaemon | None = None
        if retrieval:
            self.dense_index = DenseVectorIndex(self.repo.kv)
            self.dense = DenseIndexDaemon(
                self.repo, self.vectorizer, self.dense_index,
            )
            self.covisit = CoVisitMinerDaemon(self.repo, clock=clock)
        covisit_decay = self.covisit.decay if self.covisit is not None else 0.0
        self.classifier = ClassifierDaemon(
            self.repo, self.vectorizer, clock=clock,
            covisit_provider=(
                (lambda urls: covisit_evidence(
                    self.repo, urls, now=self._now, decay=covisit_decay,
                ))
                if retrieval else None
            ),
            tracer=self.tracer, log=self.logs.logger("classifier"),
        )
        self.themes = ThemeDaemon(
            self.repo, self.vectorizer, discovery=theme_discovery,
        )
        self.discovery = DiscoveryDaemon(
            self.repo, self.vectorizer, self.themes,
            crawler=self.crawler, clock=clock,
        )
        self.scheduler = DaemonScheduler(
            parole_after=8, metrics=self.metrics, tracer=self.tracer,
            log=self.logs.logger("scheduler"),
        )
        self.scheduler.register(self.crawler, period=1)
        self.scheduler.register(self.indexer, period=1)
        if self.dense is not None:
            self.scheduler.register(self.dense, period=1)
        if self.covisit is not None:
            self.scheduler.register(self.covisit, period=2)
        self.scheduler.register(self.classifier, period=2)
        self.scheduler.register(self.themes, period=8)
        self.scheduler.register(self.discovery, period=8)
        # Metrics time series: sample the registry's mergeable raw
        # snapshot into a bounded ring; `metrics_pull` exposes it so the
        # router (and `repro top`) can compute rates without scraping.
        self.history = MetricsHistory(self.metrics)
        self.scheduler.register(self.history, period=4)

        # Read-path caches watch the indexer/classifier/dense consumers,
        # so those daemons must be registered first.  ``None`` switches
        # read caching off: the uncached reference the differential tests
        # and BENCH_cache compare against.
        self.caches: ReadPathCaches | None = ReadPathCaches(
            self.repo.versions, metrics=self.metrics,
            dense=self.dense.name if self.dense is not None else None,
        )

        self.registry = ServletRegistry(
            metrics=self.metrics, tracer=self.tracer,
            log=self.logs.logger("servlets"),
            slow_request_threshold=slow_request_threshold,
        )
        self._register_servlets()
        # Single-process mode is literally a one-shard cluster: every
        # request (tunnel or socket) routes through the same
        # ShardDispatcher the router uses, over one in-process backend.
        # With one healthy backend every merge is the identity, so this
        # is bit-identical to direct registry dispatch.
        self.dispatcher = ShardDispatcher(
            [LocalBackend(self.registry)], metrics=self.metrics,
        )
        self.transport = HttpTunnelTransport(
            self.registry, dispatcher=self.dispatcher,
        )

        # Health and SLO engine: liveness/readiness checks over the
        # components above, plus per-servlet burn-rate SLOs lazily bound
        # to the registry's latency/error instruments on first report.
        self._versioning_lag_threshold = versioning_lag_threshold
        self.health = HealthMonitor(
            clock=self.metrics.clock, policies=slo_policies,
        )
        self.health.add_check("storage", self._check_storage)
        self.health.add_check("scheduler", self._check_scheduler)
        self.health.add_check("versioning", self._check_versioning)

        # (taxonomy, idf generation, user -> (engagement stamp, profile)):
        # replaced whole under the server lock, read without it.
        self._profiles: tuple[
            ThemeTaxonomy | None, int, dict[str, tuple[int, UserProfile]]
        ] = (None, -1, {})
        # Server lock ("server" rank in repro.locks.LOCK_ORDER, above the
        # repository lock it nests over): guards the simulation clock,
        # the publication of rebuilt profiles, and the server-level
        # check-then-act compounds (folder-path creation, user
        # registration) that span several repository calls.
        self._server_lock = threading.RLock()

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        return self._now

    def _advance(self, at: float | None) -> float:
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

    def _origin(self) -> str | None:
        """Traceparent of the active servlet span, if the request is
        traced — stamped on visits, crawl queue entries, and versioning
        items so daemon spans link back to the originating request."""
        ctx = self.tracer.current_context()
        return ctx.to_traceparent() if ctx is not None else None

    def _cached(
        self,
        name: str,
        key: Hashable,
        compute: Callable[[], Any],
        *,
        extra: Hashable = (),
    ) -> Any:
        """``compute()`` served through the read cache *name*, or called
        directly when caching is off or the bundle has no such cache."""
        cache = None if self.caches is None else getattr(self.caches, name)
        if cache is None:
            return compute()
        return cache.cached(key, compute, extra=extra)

    def _require_user(self, request: dict[str, Any]) -> dict[str, Any]:
        user_id = request.get("user_id")
        user = self.repo.get_user(user_id) if isinstance(user_id, str) else None
        if user is None:
            raise AuthError(f"unknown user {user_id!r}")
        return user

    def folder_id(self, owner: str, path: str) -> str:
        canonical = "/".join(p for p in path.split("/") if p)
        return f"{owner}:{canonical}"

    def _ensure_folder(self, owner: str, path: str, at: float) -> str:
        parts = [p for p in path.split("/") if p]
        parent: str | None = None
        built: list[str] = []
        with self._server_lock:
            for part in parts:
                built.append(part)
                fid = self.folder_id(owner, "/".join(built))
                if self.repo.db.table("folders").get(fid) is None:
                    self.repo.add_folder(fid, owner, part, parent, now=at)
                parent = fid
        if parent is None:
            raise ValueError("empty folder path")
        return parent

    def _folder_path(self, folder_id: str) -> str:
        return folder_id.split(":", 1)[1] if ":" in folder_id else folder_id

    def _user_folder_ids(self, owner: str, path: str) -> list[str]:
        fid = self.folder_id(owner, path)
        if self.repo.db.table("folders").get(fid) is None:
            return []
        return folder_and_descendants(self.repo, fid)

    def _query_vector(self, query: str):
        return text_vector(self.vectorizer.vocab, query)

    def _match_theme(self, query: str):
        """Best (theme, similarity) for a free-text topic query."""
        taxonomy = self.themes.taxonomy
        if taxonomy is None:
            return None, 0.0
        qvec = self._query_vector(query)
        if not qvec:
            return None, 0.0
        best, best_sim = None, 0.0
        for theme, sim in zip(taxonomy.leaves(), taxonomy.similarities(qvec)):
            if sim > best_sim:
                best, best_sim = theme, sim
        return best, best_sim

    def _held_profiles(
        self, taxonomy: ThemeTaxonomy, num_docs: int,
    ) -> dict[str, tuple[int, UserProfile]]:
        """The kept ``user -> (engagement stamp, profile)`` entries if they
        were built from this taxonomy object at this idf generation."""
        held_taxonomy, held_docs, held = self._profiles
        if held_taxonomy is taxonomy and held_docs == num_docs:
            return held
        return {}

    def _rebuild_moved_profiles(
        self, taxonomy: ThemeTaxonomy, num_docs: int,
    ) -> dict[str, tuple[int, UserProfile]]:
        """``user -> (engagement stamp, profile)`` for every user: kept
        where the stamp stands, built (outside the server lock) where it
        moved or the user is new, and published if anything was built."""
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
                entry = (stamp, build_profile(
                    self.repo, self.vectorizer, taxonomy, user_id,
                ))
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
        """Per-user theme profiles, as a from-scratch build over what is
        stored now would give them.

        A profile reads three things, and each has its own signal: the
        user's visits and folder contents (that user's engagement stamp),
        the taxonomy (the object ``ThemeDaemon`` swaps in whole), and the
        idf weights (``vocab.num_docs``: they move when a page enters the
        mining vocabulary).  Only users whose stamp moved, or who
        registered since, are rebuilt; a new taxonomy or idf generation
        rebuilds everyone.  The build runs outside the server lock, so a
        visit's clock advance never waits on mining.
        """
        vocab = self.vectorizer.vocab
        entries: dict[str, tuple[int, UserProfile]] = {}
        for _ in range(2):
            taxonomy, num_docs = self.themes.taxonomy, vocab.num_docs
            if taxonomy is None:
                return {}
            entries = self._rebuild_moved_profiles(taxonomy, num_docs)
            if vocab.num_docs == num_docs:
                break
            # A build vectorised a fetched page the indexer had not
            # reached, so idf moved under the users built before it (and
            # what was just published is a generation nobody will ask
            # for again).  Its pages are in the vocabulary now: once more.
        return {user_id: profile for user_id, (_, profile) in entries.items()}

    # ---------------------------------------------------------------- servlets

    def _register_servlets(self) -> None:
        handlers = {
            "register_user": self._sv_register_user,
            "set_archive_mode": self._sv_set_archive_mode,
            "visit": self._sv_visit,
            "import_history": self._sv_import_history,
            "bookmark": self._sv_bookmark,
            "folder_create": self._sv_folder_create,
            "folder_move": self._sv_folder_move,
            "folders_get": self._sv_folders_get,
            "search": self._sv_search,
            "related_pages": self._sv_related_pages,
            "recall": self._sv_recall,
            "trail": self._sv_trail,
            "context": self._sv_context,
            "themes_get": self._sv_themes_get,
            "resources": self._sv_resources,
            "bill": self._sv_bill,
            "profile_similar": self._sv_profile_similar,
            "interest_mates": self._sv_interest_mates,
            "recommend": self._sv_recommend,
            "propose_hierarchy": self._sv_propose_hierarchy,
            "apply_hierarchy": self._sv_apply_hierarchy,
            "popular_near_trail": self._sv_popular_near_trail,
            "stats": self._sv_stats,
            "health": self._sv_health,
            "metrics_pull": self._sv_metrics_pull,
        }
        # Batch handlers group-commit runs of same-servlet items inside a
        # batch envelope (see ServletRegistry.dispatch_batch).
        batch_handlers = {"visit": self._sv_visit_many}
        for name, handler in handlers.items():
            self.registry.register(
                name, handler, batch_handler=batch_handlers.get(name),
            )

    # -- account management ----------------------------------------------------

    def _sv_register_user(self, request: dict[str, Any]) -> dict[str, Any]:
        user_id = request["user_id"]
        with self._server_lock:
            if self.repo.get_user(user_id) is not None:
                return {"created": False}
            self._advance(request.get("at"))
            self.repo.add_user(
                user_id,
                name=request.get("name"),
                community=request.get("community"),
                archive_mode=request.get("archive_mode", ARCHIVE_COMMUNITY),
                now=self._now,
            )
        return {"created": True}

    def _sv_set_archive_mode(self, request: dict[str, Any]) -> dict[str, Any]:
        user = self._require_user(request)
        self.repo.set_archive_mode(user["user_id"], request["mode"])
        return {"mode": request["mode"]}

    # -- archiving ---------------------------------------------------------------

    def _sv_visit(self, request: dict[str, Any]) -> dict[str, Any]:
        user = self._require_user(request)
        mode = user["archive_mode"]
        if mode == ARCHIVE_OFF:
            return {"archived": False}
        at = self._advance(request.get("at"))
        url = request["url"]
        origin = self._origin()
        self.repo.upsert_page(url, now=at)
        visit_id = self.repo.record_visit(
            user["user_id"], url,
            at=at,
            session_id=int(request.get("session_id", 0)),
            referrer=request.get("referrer"),
            archive_mode=mode,
            origin=origin,
        )
        self.crawler.enqueue(url, origin=origin)
        return {"archived": True, "visit_id": visit_id}

    def _sv_visit_many(self, requests: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Batch leg of the visit servlet: per-item semantics identical to
        :meth:`_sv_visit` (auth, archive-off, clock clamping, crawl
        enqueue) but ONE repository group commit — one WAL record and one
        fsync — for the whole run instead of several per event.  Invalid
        items get typed per-item errors; valid neighbours still commit.
        """
        responses: list[dict[str, Any] | None] = [None] * len(requests)
        items: list[dict[str, Any]] = []
        slots: list[int] = []
        for i, request in enumerate(requests):
            try:
                user = self._require_user(request)
                mode = user["archive_mode"]
                if mode == ARCHIVE_OFF:
                    responses[i] = {"archived": False}
                    continue
                url = request["url"]
                at = self._advance(request.get("at"))
                items.append({
                    "user_id": user["user_id"],
                    "url": url,
                    "at": at,
                    "session_id": int(request.get("session_id", 0)),
                    "referrer": request.get("referrer"),
                    "archive_mode": mode,
                    # Per-item origin: each envelope item carries its own
                    # traceparent (already validated by dispatch_batch).
                    "origin": request.get("traceparent"),
                })
                slots.append(i)
            except Exception as exc:  # noqa: BLE001 - per-item isolation
                responses[i] = error_payload(exc)
        visit_ids = self.repo.record_visit_batch(items)
        for item in items:
            self.crawler.enqueue(item["url"], origin=item["origin"])
        for slot, visit_id in zip(slots, visit_ids):
            responses[slot] = {"archived": True, "visit_id": visit_id}
        return responses

    def _sv_import_history(self, request: dict[str, Any]) -> dict[str, Any]:
        """Bulk-import a raw browser history: timestamped URLs with no
        session structure.  Visits are archived with ``session_id = 0``,
        then the 30-minute gap rule (core.sessions) reconstructs sessions
        so the trail/context tabs work on pre-Memex history too."""
        from .sessions import assign_session_ids

        user = self._require_user(request)
        mode = user["archive_mode"]
        if mode == ARCHIVE_OFF:
            return {"imported": 0, "sessions_assigned": 0}
        origin = self._origin()
        # One group commit (page upserts + visit rows) for the whole
        # import, not two transactions per entry.
        items = [
            {
                "user_id": user["user_id"],
                "url": entry["url"],
                "at": self._advance(entry["at"]),
                "session_id": 0,
                "referrer": entry.get("referrer"),
                "archive_mode": mode,
                "origin": origin,
            }
            for entry in request["entries"]
        ]
        self.repo.record_visit_batch(items)
        for item in items:
            self.crawler.enqueue(item["url"], origin=origin)
        assigned = assign_session_ids(self.repo, user["user_id"])
        return {"imported": len(items), "sessions_assigned": assigned}

    def _sv_bookmark(self, request: dict[str, Any]) -> dict[str, Any]:
        user = self._require_user(request)
        at = self._advance(request.get("at"))
        url = request["url"]
        folder = self._ensure_folder(user["user_id"], request["folder_path"], at)
        self.repo.upsert_page(url, now=at)
        # A deliberate bookmark supersedes any guess for this user+url.
        for row in self.repo.page_folders(url):
            if row["source"] == ASSOC_GUESS:
                owner = self.repo.db.table("folders").get(row["folder_id"])
                if owner is not None and owner["owner"] == user["user_id"]:
                    self.repo.db.delete("folder_pages", row["assoc_id"])
        assoc_id = self.repo.associate(folder, url, ASSOC_BOOKMARK, now=at)
        self.crawler.enqueue(url, origin=self._origin())
        return {"assoc_id": assoc_id, "folder_id": folder}

    def _sv_folder_create(self, request: dict[str, Any]) -> dict[str, Any]:
        user = self._require_user(request)
        at = self._advance(request.get("at"))
        folder = self._ensure_folder(user["user_id"], request["path"], at)
        return {"folder_id": folder}

    def _sv_folder_move(self, request: dict[str, Any]) -> dict[str, Any]:
        """Cut/paste correction: strongest supervision for the classifier."""
        user = self._require_user(request)
        at = self._advance(request.get("at"))
        url = request["url"]
        owner = user["user_id"]
        removed = 0
        if request.get("from_folder"):
            src = self.folder_id(owner, request["from_folder"])
            removed = self.repo.dissociate(src, url)
        else:
            # Remove this user's guesses wherever they are.
            for row in self.repo.page_folders(url):
                folder = self.repo.db.table("folders").get(row["folder_id"])
                if (
                    folder is not None
                    and folder["owner"] == owner
                    and row["source"] == ASSOC_GUESS
                ):
                    self.repo.db.delete("folder_pages", row["assoc_id"])
                    removed += 1
        dst = self._ensure_folder(owner, request["to_folder"], at)
        assoc_id = self.repo.associate(dst, url, ASSOC_CORRECTION, now=at)
        # Corrections also relabel this user's visits of the page.
        self.repo.classify_visits([
            (visit["visit_id"], dst, 1.0)
            for visit in self.repo.db.table("visits").select(
                {"user_id": owner, "url": url}
            )
        ])
        return {"assoc_id": assoc_id, "removed": removed, "folder_id": dst}

    def _sv_folders_get(self, request: dict[str, Any]) -> dict[str, Any]:
        user = self._require_user(request)
        owner = user["user_id"]
        folders = []
        for row in sorted(
            self.repo.user_folders(owner), key=lambda r: r["folder_id"]
        ):
            items = [
                {
                    "url": assoc["url"],
                    "source": assoc["source"],
                    "confidence": assoc["confidence"],
                    "guess": assoc["source"] == ASSOC_GUESS,
                }
                for assoc in sorted(
                    self.repo.folder_pages(row["folder_id"]),
                    key=lambda a: a["assoc_id"],
                )
            ]
            folders.append({
                "path": self._folder_path(row["folder_id"]),
                "name": row["name"],
                "items": items,
            })
        return {"folders": folders}

    # -- search and recall ----------------------------------------------------------

    def _sv_search(self, request: dict[str, Any]) -> dict[str, Any]:
        """Paginated full-text search.

        ``limit`` (default: legacy ``k``) and ``offset`` window the ranked
        result list; the response always reports ``total`` matches and
        ``has_more``, so clients page through million-hit archives instead
        of shipping unbounded lists.

        ``mode`` selects the ranking: ``ranked`` (BM25), ``boolean``, or
        ``hybrid`` — reciprocal-rank fusion of the lexical, dense-vector,
        and co-visitation rankings, deduped on canonical URL *before*
        ``total`` is counted (DESIGN.md §13).  ``hybrid`` falls back to
        ``ranked`` on a server constructed with ``retrieval=False``.

        Responses are served from the search cache keyed by the full
        request shape (query, mode, scope, user for ``mine``, limit,
        offset); validity is the indexer's watermark plus the page/visit
        change stamps the candidate sets read (hybrid entries also fold
        in the covisits stamp and the dense consumer's watermark).
        """
        user = self._require_user(request)
        query = request["query"]
        limit, offset, mode, scope = search_options(request)
        hybrid = mode == "hybrid" and self.retrieval_enabled

        key = (
            query, mode, scope,
            user["user_id"] if scope == "mine" else "",
            limit, offset,
        )
        stamps = self.repo.stamps
        # Titles come from the pages table; mine/community candidate
        # sets additionally read the visits table.
        extra: tuple = (
            (stamps.pages, stamps.visits)
            if scope in ("mine", "community")
            else (stamps.pages,)
        )
        if hybrid:
            # The fused ranking also reads the co-visitation matrix and
            # the dense ANN index; the dense consumer is not in this
            # cache's watch set, so its watermark rides the extra stamp.
            extra = (*extra, stamps.covisits,
                     self.repo.versions.watermark(self.dense.name))

        def compute() -> dict[str, Any]:
            candidates: set[str] | None = None
            if scope == "mine":
                candidates = {
                    v["url"] for v in self.repo.user_visits(user["user_id"])
                }
            elif scope == "community":
                candidates = {v["url"] for v in self.repo.community_visits()}
            if mode == "boolean":
                from ..text.query import ranked_boolean_search

                hits = ranked_boolean_search(self.search_engine, query, k=None)
                if candidates is not None:
                    hits = [h for h in hits if h.doc_id in candidates]
            else:
                hits = self.search_engine.search(
                    query, k=None, candidates=candidates)
            if hybrid:
                fused = self._fuse_hybrid(query, hits, candidates)
                # Post-dedup accounting: fusion folds URL variants into
                # one canonical page, so total/has_more count the deduped
                # list — counting first and deduping later drifts the
                # page window.
                total = len(fused)
                page_rows = fused[offset:offset + limit]
            else:
                total = len(hits)
                page_rows = [
                    (h.doc_id, h.score) for h in hits[offset:offset + limit]
                ]
            payloads = []
            for url, score in page_rows:
                payload = self._hit_payload(url, score)
                payload["snippet"] = self._snippet_for(url, query)
                payloads.append(payload)
            return {
                "hits": payloads,
                "total": total,
                "offset": offset,
                "has_more": offset + len(payloads) < total,
            }

        return self._cached("search", key, compute, extra=extra)

    def _fuse_hybrid(
        self,
        query: str,
        lexical_hits: list[Any],
        candidates: set[str] | None,
    ) -> list[tuple[str, float]]:
        """Fuse the lexical, dense, and co-visitation rankings (RRF)."""
        assert self.dense_index is not None and self.covisit is not None
        lexical = [h.doc_id for h in lexical_hits]
        qvec = tfidf(
            self.vectorizer.vocab,
            text_vector(self.vectorizer.vocab, query),
        )
        # Dense leg with Rocchio-style pseudo-relevance feedback: a
        # two-word query projects to a nearly arbitrary direction in the
        # reduced space, so pull it toward the centroid of the top lexical
        # hits' document vectors — "more documents like what matched",
        # not "documents near these two words".
        qdense = self.dense_index.projector.project(qvec)
        feedback = [
            vec for vec in (
                self.dense_index.vector(url)
                for url in lexical[:COVISIT_SEEDS]
            ) if vec is not None
        ]
        if feedback:
            centroid = [sum(col) / len(feedback) for col in zip(*feedback)]
            qdense = [
                a + PRF_FEEDBACK * b for a, b in zip(qdense, centroid)
            ]
        dense = [
            url for url, _ in self.dense_index.query(
                qdense, k=FUSE_DEPTH, candidates=candidates,
            )
        ]
        # Trail leg: aggregate the co-visitation neighborhoods of the top
        # lexical hits — pages the community surfs *together with* the
        # textual matches, whether or not their own text matches.
        cov_scores: dict[str, float] = {}
        for seed in lexical[:COVISIT_SEEDS]:
            for other, score in related_scores(
                self.repo, seed,
                now=self._now, decay=self.covisit.decay, k=FUSE_DEPTH,
            ):
                if candidates is not None and other not in candidates:
                    continue
                cov_scores[other] = cov_scores.get(other, 0.0) + score
        covisit = [
            url for url, _ in sorted(
                cov_scores.items(), key=lambda kv: (-kv[1], kv[0]),
            )[:FUSE_DEPTH]
        ]
        return rrf_fuse(
            [
                (HYBRID_WEIGHTS["lexical"], lexical),
                (HYBRID_WEIGHTS["dense"], dense),
                (HYBRID_WEIGHTS["covisit"], covisit),
            ],
            key=canonical_url,
        )

    def _sv_related_pages(self, request: dict[str, Any]) -> dict[str, Any]:
        """Pages the community surfs together with ``url`` (DESIGN.md §13).

        Fuses the co-visitation neighborhood (what trails say) with the
        dense nearest neighbours (what the text says), reciprocal-rank
        style, deduped on canonical URL.  Returns up to ``k`` rows and the
        post-dedup neighborhood size as ``total``.  Requires a server
        constructed with ``retrieval=True``.
        """
        self._require_user(request)
        url = request["url"]
        k = int(request.get("k", 10))
        if k < 0:
            raise ValueError("k must be non-negative")
        if not self.retrieval_enabled:
            raise ServletError(
                "related_pages requires a server with retrieval enabled")
        assert self.dense_index is not None and self.covisit is not None

        canon = canonical_url(url)
        stamps = self.repo.stamps

        def compute() -> dict[str, Any]:
            cov_scores: dict[str, float] = {}
            for seed in sorted({url, canon}):
                for other, score in related_scores(
                    self.repo, seed,
                    now=self._now, decay=self.covisit.decay, k=FUSE_DEPTH,
                ):
                    cov_scores[other] = max(cov_scores.get(other, 0.0), score)
            covisit = [
                u for u, _ in sorted(
                    cov_scores.items(), key=lambda kv: (-kv[1], kv[0]),
                )[:FUSE_DEPTH]
            ]
            dense = [
                u for u, _ in self.dense_index.neighbors(url, k=FUSE_DEPTH)
            ]
            fused = [
                (u, score) for u, score in rrf_fuse(
                    [
                        (HYBRID_WEIGHTS["lexical"], covisit),
                        (HYBRID_WEIGHTS["dense"], dense),
                    ],
                    key=canonical_url,
                )
                if canonical_url(u) != canon   # never recommend the page itself
            ]
            rows = []
            for u, score in fused[:k]:
                page = self.repo.db.table("pages").get(u)
                rows.append({
                    "url": u,
                    "score": round(score, 6),
                    "title": (page or {}).get("title"),
                })
            return {"url": url, "related": rows, "total": len(fused)}

        # covisits stamp covers the matrix; pages covers titles.
        return self._cached(
            "related", (canon, k), compute,
            extra=(stamps.covisits, stamps.pages),
        )

    def _snippet_for(self, url: str, query: str) -> str | None:
        text = self.repo.page_text(url)
        if text is None:
            return None
        return make_snippet(text, query).marked()

    def _sv_recall(self, request: dict[str, Any]) -> dict[str, Any]:
        """Temporal recall: full-text search over MY visits around a time."""
        user = self._require_user(request)
        query = request["query"]
        around = self._now - float(request["around_days_ago"]) * DAY
        tolerance = float(request.get("tolerance_days", 45.0)) * DAY
        k = int(request.get("k", 5))
        window = {
            v["url"]: v["at"]
            for v in self.repo.user_visits(
                user["user_id"], since=around - tolerance, until=around + tolerance,
            )
        }
        hits = self.search_engine.search(query, k=k * 3, candidates=set(window))
        ranked = []
        for hit in hits:
            # Prefer hits whose visit time is nearest the asked-about time.
            nearness = 1.0 / (1.0 + abs(window[hit.doc_id] - around) / DAY)
            ranked.append((hit.doc_id, hit.score * (0.5 + nearness)))
        ranked.sort(key=lambda kv: (-kv[1], kv[0]))
        return {
            "hits": [
                {**self._hit_payload(url, score), "visited_at": window[url]}
                for url, score in ranked[:k]
            ]
        }

    def _hit_payload(self, url: str, score: float) -> dict[str, Any]:
        page = self.repo.db.table("pages").get(url)
        return {"url": url, "score": score, "title": (page or {}).get("title")}

    # -- trail and context -------------------------------------------------------------

    def _sv_trail(self, request: dict[str, Any]) -> dict[str, Any]:
        """Trail replay for one topic folder (Figure 1's surf-trail view).

        Cached per (owner, folder path, window); validity is the indexer
        and classifier watermarks plus every change stamp the replay
        reads (visits, folder structure, associations, classifications,
        pages, links), the owner's model version, and the simulation
        clock the window anchors to.
        """
        user = self._require_user(request)
        owner = user["user_id"]
        path = request["folder_path"]
        window_days = float(request.get("window_days", 14.0))

        def compute() -> dict[str, Any]:
            return {"trail": self._trail_graph(owner, path, window_days).to_payload()}

        return self._cached(
            "trails", ("trail", owner, path, window_days), compute,
            extra=self._trail_extra(owner),
        )

    def _trail_graph(self, owner: str, path: str, window_days: float):
        """The owner's trail over one folder subtree plus the community
        pages their folder model claims for it, over the last
        *window_days* of simulation time."""
        folder_ids = self._user_folder_ids(owner, path)
        since = self._now - window_days * DAY
        include = self._community_pages_for_folder(owner, folder_ids, since=since)
        return build_trail_graph(
            self.repo, folder_ids,
            folder_paths=[path], since=since,
            user_id=owner, include_urls=include,
        )

    def _trail_extra(self, owner: str) -> tuple:
        """Non-versioned validity stamps for trail-shaped read paths:
        every UI-write counter the replay reads, the owner's classifier
        model version, and the simulation clock (recency windows are
        anchored to *now*, which only moves with incoming events)."""
        stamps = self.repo.stamps
        return (
            stamps.visits, stamps.assocs, stamps.classifications,
            stamps.folders, stamps.pages, stamps.links,
            self.classifier.model_version(owner), self._now,
        )

    def _community_pages_for_folder(
        self,
        owner: str,
        folder_ids: list[str],
        *,
        since: float | None = None,
        similarity_quantile: float = 0.25,
    ) -> set[str]:
        """Community-visited pages 'most likely to belong to the selected
        topic': other users' public pages run through MY folder model,
        with a calibrated absolute-similarity floor.

        The classifier alone cannot reject out-of-domain pages (it has no
        reject class, and naive-Bayes posteriors saturate on long
        documents), so a page must ALSO be at least as similar to the
        folder's centroid as the folder's own *similarity_quantile*-worst
        deliberate member — a per-folder calibration with no magic
        constants.

        Per-page predictions — the hot inner loop of trail replay and
        popular-near-trail — are served from the classify cache keyed
        (owner, url, model version): a page's vector never changes after
        its first fetch, so the key fully determines the decision.
        """
        from ..text.vectorize import centroid as _centroid

        try:
            model = self.classifier.model_for(owner)
        except NotFitted:
            return set()
        folder_set = set(folder_ids)
        member_vecs = []
        for fid in folder_ids:
            for row in self.repo.folder_pages(
                fid, sources=(ASSOC_BOOKMARK, ASSOC_CORRECTION),
            ):
                vec = self.vectorizer.tfidf_vector(row["url"])
                if vec is not None:
                    member_vecs.append(vec)
        if not member_vecs:
            return set()
        center = _centroid(member_vecs)
        member_sims = sorted(cosine(v, center) for v in member_vecs)
        floor = member_sims[int(similarity_quantile * (len(member_sims) - 1))]

        model_version = self.classifier.model_version(owner)

        out: set[str] = set()
        seen: set[str] = set()
        for visit in self.repo.community_visits(since=since):
            if visit["user_id"] == owner or visit["url"] in seen:
                continue
            seen.add(visit["url"])
            url = visit["url"]
            vec = self.vectorizer.vector(url)
            if vec is None:
                continue
            tvec = self.vectorizer.tfidf_vector(url)
            if tvec is None or cosine(tvec, center) < floor:
                continue
            # Independent per-page prediction: batch relaxation would let
            # confidently-wrong labels cascade through off-topic clusters.
            folder = self._cached(
                "classify", (owner, url, model_version),
                lambda: model.predict(url, vec)[0],
            )
            if folder in folder_set:
                out.add(url)
        return out

    def _sv_context(self, request: dict[str, Any]) -> dict[str, Any]:
        user = self._require_user(request)
        owner = user["user_id"]
        folder_ids = self._user_folder_ids(owner, request["folder_path"])
        session = recall_session(self.repo, owner, folder_ids)
        if session is None:
            return {"found": False, "session": None, "neighborhood": None}
        graph = context_neighborhood(self.repo, session)
        return {
            "found": True,
            "session": session.to_payload(),
            "neighborhood": graph.to_payload(),
        }

    # -- community mining views -----------------------------------------------------------

    def _sv_themes_get(self, request: dict[str, Any]) -> dict[str, Any]:
        self._require_user(request)
        taxonomy = self.themes.taxonomy
        if taxonomy is None:
            return {"themes": []}

        def payload(theme, depth: int) -> dict[str, Any]:
            return {
                "theme_id": theme.theme_id,
                "label": theme.label,
                "depth": depth,
                "folders": [list(f) for f in theme.folders],
                "num_users": theme.num_users,
                "weight": theme.weight,
                "children": [payload(c, depth + 1) for c in theme.children],
            }

        return {"themes": [payload(t, 0) for t in taxonomy.roots]}

    def _sv_resources(self, request: dict[str, Any]) -> dict[str, Any]:
        self._require_user(request)
        theme, sim = self._match_theme(request["query"])
        if theme is None or sim <= 0.0:
            return {"resources": [], "theme": None}
        k = int(request.get("k", 10))
        since_days = request.get("since_days")
        out = []
        for res in self.discovery.for_theme(theme.theme_id):
            if since_days is not None and res.first_seen < self._now - float(since_days) * DAY:
                continue
            page = self.repo.db.table("pages").get(res.url)
            out.append({
                "url": res.url,
                "title": (page or {}).get("title"),
                "score": res.score,
                "authority": res.authority,
                "similarity": res.similarity,
                "first_seen": res.first_seen,
            })
            if len(out) >= k:
                break
        return {"resources": out, "theme": theme.theme_id, "theme_label": theme.label}

    def _sv_bill(self, request: dict[str, Any]) -> dict[str, Any]:
        user = self._require_user(request)
        days = float(request["days"])
        lines = bill_breakdown(
            self.repo, user["user_id"],
            since=self._now - days * DAY,
            monthly_rate=float(request.get("monthly_rate", 20.0)),
        )
        return {"lines": [l.to_payload() for l in lines]}

    def _sv_profile_similar(self, request: dict[str, Any]) -> dict[str, Any]:
        user = self._require_user(request)
        profiles = self.current_profiles()
        ranked = similar_users(
            profiles, user["user_id"], k=int(request.get("k", 5)),
        )
        return {"users": [{"user_id": u, "similarity": s} for u, s in ranked]}

    def _sv_interest_mates(self, request: dict[str, Any]) -> dict[str, Any]:
        user = self._require_user(request)
        theme, sim = self._match_theme(request["query"])
        if theme is None or sim <= 0.0:
            return {"users": [], "theme": None}
        exclude_theme = None
        if request.get("exclude_query"):
            exclude_theme, ex_sim = self._match_theme(request["exclude_query"])
            if ex_sim <= 0.0:
                exclude_theme = None
        profiles = self.current_profiles()
        scored = []
        for other, profile in profiles.items():
            if other == user["user_id"]:
                continue
            weight = profile.weights.get(theme.theme_id, 0.0)
            if weight <= 0.0:
                continue
            if (
                exclude_theme is not None
                and profile.weights.get(exclude_theme.theme_id, 0.0) > 0.2
            ):
                continue
            scored.append({"user_id": other, "interest": weight})
        scored.sort(key=lambda d: (-d["interest"], d["user_id"]))
        return {
            "users": scored[: int(request.get("k", 5))],
            "theme": theme.theme_id,
            "theme_label": theme.label,
        }

    def _sv_recommend(self, request: dict[str, Any]) -> dict[str, Any]:
        user = self._require_user(request)
        profiles = self.current_profiles()
        recs = recommend_pages(
            self.repo, self.vectorizer, self.themes.taxonomy,
            profiles, user["user_id"], k=int(request.get("k", 10)),
        )
        return {"pages": [r.to_payload() for r in recs]}

    def _sv_propose_hierarchy(self, request: dict[str, Any]) -> dict[str, Any]:
        """§2: propose a topic hierarchy over one folder's links."""
        from .organize import propose_hierarchy

        user = self._require_user(request)
        folder_ids = self._user_folder_ids(user["user_id"], request["folder_path"])
        urls = sorted({
            row["url"] for fid in folder_ids for row in self.repo.folder_pages(fid)
        })
        if not urls:
            return {"proposal": None, "reason": "folder is empty"}
        proposal = propose_hierarchy(
            self.vectorizer, urls,
            min_cluster=int(request.get("min_cluster", 3)),
            max_depth=int(request.get("max_depth", 3)),
        )
        return {"proposal": proposal.to_payload()}

    def _sv_apply_hierarchy(self, request: dict[str, Any]) -> dict[str, Any]:
        """Accept a proposed reorganization: folders created, items moved."""
        from .organize import ProposedFolder, apply_proposal

        user = self._require_user(request)
        at = self._advance(request.get("at"))
        proposal = ProposedFolder.from_payload(request["proposal"])
        moved = apply_proposal(
            self, user["user_id"], request["folder_path"], proposal, at=at,
        )
        return {"moved": moved}

    def _sv_popular_near_trail(self, request: dict[str, Any]) -> dict[str, Any]:
        """Abstract's query: 'popular pages in or near my community's
        recent trail graph related to <topic>' — HITS authorities on the
        trail neighborhood."""
        from ..mining.linkanalysis import popular_near
        from ..server.daemons import link_graph

        user = self._require_user(request)
        owner = user["user_id"]
        path = request["folder_path"]
        window_days = float(request.get("window_days", 30.0))
        k = int(request.get("k", 10))
        hops = int(request.get("hops", 1))

        def compute() -> dict[str, Any]:
            seeds = set(self._trail_graph(owner, path, window_days).nodes)
            if not seeds:
                return {"pages": []}
            ranked = popular_near(link_graph(self.repo), seeds, k=k, hops=hops)
            return {
                "pages": [
                    {**self._hit_payload(url, score), "in_trail": url in seeds}
                    for url, score in ranked
                ]
            }

        return self._cached(
            "trails", ("popular", owner, path, window_days, k, hops), compute,
            extra=self._trail_extra(owner),
        )

    # -- health and observability ---------------------------------------------------------

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
        return worst <= self._versioning_lag_threshold, {
            "lags": lags,
            "threshold": self._versioning_lag_threshold,
        }

    def _sv_health(self, request: dict[str, Any]) -> dict[str, Any]:
        """Liveness/readiness plus per-servlet SLO status.

        Unauthenticated by design: load balancers and probes must be able
        to ask "are you well?" without a user row.  SLOs are (re)bound
        lazily from the registry's live instruments so servlets that have
        never seen traffic don't report empty objectives.
        """
        for name, (errors, latency) in self.registry.servlet_instruments().items():
            self.health.slo(name, latency, errors)
        return self.health.report()

    def _sv_metrics_pull(self, request: dict[str, Any]) -> dict[str, Any]:
        """Mergeable raw metrics: bucket counts, not summaries.

        Unauthenticated by design, like ``health``: this is the operator
        pull path the router scatter-gathers into a cluster registry
        (``repro top``, loadgen's server-side delta), and a monitoring
        agent must not need a user row.  ``include_history`` adds the
        sampled time-series ring (``history_limit`` newest samples).
        """
        out: dict[str, Any] = {
            "metrics": self.metrics.raw_snapshot(),
            "history_len": len(self.history),
        }
        if request.get("include_history"):
            limit = int(request.get("history_limit", 32))
            out["history"] = self.history.samples(limit)
        return out

    def _sv_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        """The observability servlet: catalog sizes, daemon and servlet
        counters, per-servlet latency percentiles, per-consumer versioning
        lag (the "loose coherence" headline gauge), and — on request — the
        full metric snapshot, recent trace spans, and the structured log
        ring."""
        self._require_user(request)
        out = {
            "pages": len(self.repo.db.table("pages")),
            "visits": len(self.repo.db.table("visits")),
            "links": len(self.repo.db.table("links")),
            "indexed": self.index.num_docs,
            "crawl_backlog": self.crawler.backlog,
            "daemons": self.scheduler.stats(),
            "servlets": self.registry.stats(),
            "versions": self.repo.versions.consumers(),
            "versioning_lag": self.repo.versions.lags(),
            "latency": self.registry.latency_summary(),
            "latency_raw": self.registry.latency_raw(),
            "cache": self.caches.stats() if self.caches is not None else {},
            "storage": self.repo.storage_stats(),
        }
        if request.get("include_metrics"):
            out["metrics"] = self.metrics.snapshot()
        if request.get("include_spans"):
            out["spans"] = self.tracer.to_payload()
        if request.get("include_logs"):
            out["logs"] = self.logs.to_payload(
                limit=int(request.get("log_limit", 200)),
            )
        return out

    # ---------------------------------------------------------------- network

    def listen(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        idle_timeout: float = 30.0,
        read_timeout: float = 5.0,
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
            read_timeout=read_timeout,
            key_source=self.transport,
            metrics=self.metrics,
            log=self.logs.logger("netserver"),
        )

    # ---------------------------------------------------------------- lifecycle

    def save_state(self) -> dict[str, int]:
        """Persist mined state (per-user classifier models, vocabulary)
        into the repository's model store.  Catalog and index already
        persist through their own write paths when a root was given."""
        saved_models = self.classifier.persist_models()
        self.repo.save_model("vocabulary", self.vectorizer.vocab.to_dict())
        self.repo.save_model("server_clock", {"now": self._now})
        return {"models": saved_models}

    def restore_state(self) -> dict[str, int]:
        """Reload mined state saved by :meth:`save_state`."""
        from ..text.vocabulary import Vocabulary

        vocab_payload = self.repo.load_model("vocabulary")
        if vocab_payload is not None:
            self.vectorizer.vocab = Vocabulary.from_dict(vocab_payload)
        clock = self.repo.load_model("server_clock")
        if clock is not None:
            self._now = max(self._now, float(clock["now"]))
        restored = self.classifier.restore_models()
        return {"models": restored}

    def close(self) -> None:
        self.repo.close()

    def __enter__(self) -> "MemexServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
