"""Background daemons: crawler, indexer, classifier, theme analyzer,
resource discovery.

Figure 3's mining demons.  Each daemon implements the scheduler's
:class:`~repro.server.scheduler.Daemon` protocol (bounded ``run_once``),
reads through the repository façade, and coordinates with the others
through the loosely-consistent versioning layer: the **crawler** is the
single producer; the **indexer** and the **classifier** are registered
consumers that each see consistent published prefixes of the crawl.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce

from ..errors import NotFitted
from ..mining.linkanalysis import LinkGraph
from ..mining.linkfolder import EnhancedClassifier, build_coplacement
from ..mining.themes import FolderDoc, ThemeDiscovery, ThemeTaxonomy
from ..obs import (
    Logger,
    TraceParseError,
    Tracer,
    null_logger,
    null_tracer,
    parse_traceparent,
)
from ..retrieval.covisit import CoVisitMinerDaemon, covisit_evidence
from ..storage.repository import MemexRepository
from ..storage.schema import ASSOC_BOOKMARK, ASSOC_CORRECTION, folder_path
from ..text.index import InvertedIndex
from ..text.tokenize import tokenize
from ..text.vectorize import SparseVector, add, tfidf
from ..text.vocabulary import Vocabulary


@dataclass(frozen=True)
class FetchedPage:
    """What the crawler gets back for one URL."""

    url: str
    title: str
    text: str
    out_links: tuple[str, ...] = ()
    front_page: bool = False


# The crawler's view of the Web: URL -> page or None (dead link).
FetchFn = Callable[[str], FetchedPage | None]


#: Shared no-op context manager for untraced work items.
_NO_SPAN = nullcontext()


def _origin_context(origin: str | None):
    """Best-effort parse of a stored origin traceparent.

    Daemons must never crash on a bad stored header — propagation is
    observability, not control flow — so malformed simply means unlinked.
    """
    if origin is None:
        return None
    try:
        return parse_traceparent(origin)
    except TraceParseError:
        return None


class PageVectorizer:
    """Shared page -> sparse-vector service with caching.

    All mining daemons must agree on one vocabulary and one vector per
    page; this object is that agreement.  Each page is counted into the
    vocabulary's document frequencies once, when it is first vectorized;
    a restarted server re-counts every fetched page
    (:meth:`~repro.core.memex.MemexServer.restore_state`).
    """

    def __init__(self, repo: MemexRepository) -> None:
        self.repo = repo
        self.vocab = Vocabulary()
        self._cache: dict[str, SparseVector] = {}
        self._vectorizer_lock = threading.Lock()

    def vector(self, url: str) -> SparseVector | None:
        """Term-count vector of a fetched page (None when not fetched)."""
        vec = self._cache.get(url)
        if vec is not None:
            return vec
        text = self.repo.page_text(url)
        if text is None:
            return None
        page = self.repo.db.table("pages").get(url)
        title = (page or {}).get("title") or ""
        tokens = tokenize(f"{title} {text}")
        # A servlet thread and a daemon can both miss on one url: the
        # page is counted into the vocabulary by whoever gets here first.
        with self._vectorizer_lock:
            vec = self._cache.get(url)
            if vec is None:
                # add_document (not plain counting) so the vocabulary
                # accumulates document frequencies — IDF weighting and
                # label filtering need it.
                counts = self.vocab.add_document(tokens)
                vec = {t: float(c) for t, c in counts.items()}
                self._cache[url] = vec
        return vec

    @property
    def num_docs(self) -> int:
        """The idf generation, ``vocab.num_docs``, read between documents:
        one being counted in when this is called has moved it by the time
        this returns.  So a computation that reads the same value before
        and after itself read one state of every idf weight."""
        with self._vectorizer_lock:
            return self.vocab.num_docs

    def tfidf_vector(self, url: str) -> SparseVector | None:
        vec = self.vector(url)
        if vec is None:
            return None
        return tfidf(self.vocab, vec)


def deliberate_filings(repo: MemexRepository) -> list[tuple[str, str, str]]:
    """``(owner, folder_id, url)`` of every deliberate filing (bookmark or
    correction), in table order: one pass over the rows and one
    ``folders`` lookup per folder."""
    folders = repo.db.table("folders")
    owners: dict[str, str | None] = {}
    out: list[tuple[str, str, str]] = []
    for row in repo.db.table("folder_pages").select(
        lambda r: r["source"] in (ASSOC_BOOKMARK, ASSOC_CORRECTION)
    ):
        folder_id = row["folder_id"]
        if folder_id not in owners:
            folder = folders.get(folder_id)
            owners[folder_id] = None if folder is None else folder["owner"]
        owner = owners[folder_id]
        if owner is not None:
            out.append((owner, folder_id, row["url"]))
    return out


def link_graph(repo: MemexRepository) -> LinkGraph:
    """Materialize the catalog's links table as a directed graph."""
    graph = LinkGraph()
    for row in repo.db.table("pages").scan():
        graph.add_node(row["url"])
    for row in repo.db.table("links").scan():
        graph.add_edge(row["src"], row["dst"])
    return graph


# ---------------------------------------------------------------------------
# Crawler
# ---------------------------------------------------------------------------

class CrawlerDaemon:
    """Single producer: fetches queued URLs, stores text + links, and
    publishes each batch as one version.

    Each queued URL may carry an *origin* traceparent (the visit that
    caused the fetch); the fetch then runs under a span linked to that
    trace and the origin is stamped onto the versioning item, so the
    indexer and classifier can link their work all the way back to the
    applet click.  Origins are best-effort: a crashed batch retries
    without them.
    """

    name = "crawler"

    #: URLs fetched and published as one version per run.
    BATCH = 64

    def __init__(
        self,
        repo: MemexRepository,
        fetch: FetchFn,
        *,
        clock: Callable[[], float] = lambda: 0.0,
        tracer: Tracer | None = None,
        log: Logger | None = None,
    ) -> None:
        self.repo = repo
        self.fetch = fetch
        self.clock = clock
        self.tracer = tracer if tracer is not None else null_tracer()
        self.log = log if log is not None else null_logger("crawler")
        # Guards the fetch queue, its dedup set, and the origin side
        # table: enqueue() arrives from servlet worker threads while
        # run_once() drains on the scheduler's thread.
        self._queue_lock = threading.Lock()
        self._queue: list[str] = []
        self._queued: set[str] = set()
        self._origins: dict[str, str] = {}   # url -> origin traceparent
        self.fetched_count = 0
        self.dead_count = 0

    def enqueue(self, url: str, *, origin: str | None = None) -> None:
        """Request a fetch (visit handlers and discovery both call this).

        ``origin`` is the traceparent of the request that caused the
        fetch; it rides along so the eventual crawl/index/classify work
        links back to it.
        """
        if url in self._queued:
            return
        page = self.repo.db.table("pages").get(url)
        if page is not None and page["fetched"]:
            return
        with self._queue_lock:
            if url in self._queued:
                return
            self._queued.add(url)
            self._queue.append(url)
            if origin is not None:
                self._origins[url] = origin
        # The backlog gauge is refreshed per crawl batch (run_once), not per
        # enqueue — enqueue sits on the visit servlet's hot path.

    @property
    def backlog(self) -> int:
        with self._queue_lock:
            return len(self._queue)

    def run_once(self) -> int:
        with self._queue_lock:
            if not self._queue:
                return 0
            batch = self._queue[: self.BATCH]
            del self._queue[: len(batch)]
            origins = {url: self._origins.pop(url, None) for url in batch}
            for url in batch:
                self._queued.discard(url)
        now = self.clock()
        version = self.repo.versions.open_version()
        try:
            # Fetch the whole batch first, then store it as one group
            # commit: nobody is told a page exists before publish(), so
            # the version, not the page, is the unit that must be durable.
            fetched: list[tuple[str, FetchedPage]] = []
            for url in batch:
                origin = origins[url]
                with self.tracer.span(
                    "daemon.crawler.fetch",
                    parent=_origin_context(origin), url=url,
                ) if origin is not None else _NO_SPAN:
                    page = self.fetch(url)
                    if page is None:
                        self.dead_count += 1
                        self.log.debug("dead_link", url=url)
                        continue
                    fetched.append((url, page))
            self.repo.record_fetch_batch(
                [
                    {"url": url, "title": page.title, "text": page.text,
                     "front_page": page.front_page,
                     "out_links": page.out_links}
                    for url, page in fetched
                ],
                now=now, produced_version=version,
            )
            for url, _ in fetched:
                self.repo.versions.add_item(url, origin=origins[url])
        except Exception:
            # Producer crash path: the half-built version must never
            # become visible — abort it so the next run can open a fresh
            # one ("the server recovers ... even if it has to discard a
            # few client events", §3).  Nothing of it was stored unless
            # the group commit itself failed part-way, so the whole batch
            # (including the URL that crashed: the scheduler's quarantine
            # guards against permanent poison) goes back on the queue and
            # transient faults lose no work; storing a page again is
            # idempotent.
            self.repo.versions.abort_version()
            with self._queue_lock:
                self._queue = list(batch) + self._queue
                self._queued.update(batch)
                for url, origin in origins.items():
                    if origin is not None:
                        self._origins.setdefault(url, origin)
            raise
        done = len(fetched)
        self.fetched_count += done
        self.repo.versions.publish()
        return done


# ---------------------------------------------------------------------------
# Indexer
# ---------------------------------------------------------------------------

class IndexerDaemon:
    """Consumer: pulls published pages into the inverted index.

    A poll is indexed in slices of at most :attr:`SLICE` pages, each one
    group commit of the index, and acked once all of it is stored.  When
    a polled URL carries an origin traceparent (stamped by the crawler
    from the originating visit), reading the page and entering it into
    the mining vocabulary runs under a span linked to that trace; the
    index write belongs to the slice.  Every indexed page also enters
    the shared mining vocabulary, so document frequencies (and every
    IDF-weighted similarity downstream) depend only on what has been
    indexed, never on which mining daemon happened to touch a page first.
    """

    name = "indexer"

    #: One crawler batch: bounds the texts and token tables held at once
    #: however many versions the indexer has fallen behind.
    SLICE = 64

    def __init__(
        self,
        repo: MemexRepository,
        index: InvertedIndex,
        *,
        vectorizer: PageVectorizer,
        tracer: Tracer | None = None,
        log: Logger | None = None,
    ) -> None:
        self.repo = repo
        self.index = index
        self.vectorizer = vectorizer
        self.tracer = tracer if tracer is not None else null_tracer()
        self.log = log if log is not None else null_logger("indexer")
        repo.versions.register_consumer(self.name)
        self.indexed_count = 0

    def run_once(self) -> int:
        watermark, urls = self.repo.versions.poll(self.name)
        done = 0
        for start in range(0, len(urls), self.SLICE):
            docs: list[tuple[str, str]] = []
            for url in urls[start:start + self.SLICE]:
                text = self.repo.page_text(url)
                if text is None:
                    continue
                origin = self.repo.versions.origin(url)
                with self.tracer.span(
                    "daemon.indexer.index",
                    parent=_origin_context(origin), url=url,
                ) if origin is not None else _NO_SPAN:
                    page = self.repo.db.table("pages").get(url)
                    title = (page or {}).get("title") or ""
                    docs.append((url, f"{title} {text}"))
                    self.vectorizer.vector(url)
            self.index.add_documents(docs)
            done += len(docs)
        self.repo.versions.ack(self.name, watermark)
        self.indexed_count += done
        if done:
            self.log.debug("indexed", documents=done, watermark=watermark)
        return done


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------

class ClassifierDaemon:
    """Consumer: files surfed pages into each user's folders.

    Retrains a per-user :class:`EnhancedClassifier` whenever that user has
    accumulated enough new supervision (bookmarks or corrections), then
    classifies the user's unlabelled visits, writing 'guess' associations
    (Figure 1's '?') and annotating the visit rows.  A fit reads all four
    evidence channels: text, links, community co-placement, and the
    co-visit neighbours of the training pages.
    """

    name = "classifier"

    #: A folder is a class once it holds this many usable filings ...
    MIN_TRAINING_PER_CLASS = 2
    #: ... and a user gets a model once they have this many classes.
    MIN_CLASSES = 2
    #: New usable filings that make a user's model due for a refit.
    RETRAIN_AFTER = 5
    #: Visits classified per user per run (a run looks at four times as
    #: many, across users).
    BATCH = 64

    def __init__(
        self,
        repo: MemexRepository,
        vectorizer: PageVectorizer,
        *,
        clock: Callable[[], float] = lambda: 0.0,
        tracer: Tracer | None = None,
        log: Logger | None = None,
    ) -> None:
        self.repo = repo
        self.vectorizer = vectorizer
        self.clock = clock
        self.tracer = tracer if tracer is not None else null_tracer()
        self.log = log if log is not None else null_logger("classifier")
        repo.versions.register_consumer(self.name)
        self._models: dict[str, EnhancedClassifier] = {}
        self._trained_on: dict[str, int] = defaultdict(int)
        # Monotone per-user fit counter; the trail read cache's validity
        # carries it, so replays from a superseded model are never served.
        self._model_versions: dict[str, int] = defaultdict(int)
        self._graph: LinkGraph | None = None
        self._graph_links = -1
        self.classified_count = 0

    # -- training -------------------------------------------------------------

    @staticmethod
    def _community_folders(
        filings: list[tuple[str, str, str]], exclude_user: str,
    ) -> list[list[str]]:
        """Folder contents across the rest of the community (co-placement)."""
        contents: dict[str, list[str]] = defaultdict(list)
        for owner, folder_id, url in filings:
            if owner != exclude_user:
                contents[folder_id].append(url)
        return list(contents.values())

    def _current_graph(self) -> LinkGraph:
        n_links = len(self.repo.db.table("links"))
        if self._graph is None or n_links != self._graph_links:
            self._graph = link_graph(self.repo)
            self._graph_links = n_links
        return self._graph

    def _maybe_train(
        self, user_id: str, filings: list[tuple[str, str, str]],
    ) -> EnhancedClassifier | None:
        # url -> folder_id from the user's deliberate actions.
        supervision = {
            url: folder_id for owner, folder_id, url in filings
            if owner == user_id
        }
        usable = {
            url: folder for url, folder in supervision.items()
            if self.vectorizer.vector(url) is not None
        }
        per_class: dict[str, int] = defaultdict(int)
        for folder in usable.values():
            per_class[folder] += 1
        classes = [
            c for c, n in per_class.items() if n >= self.MIN_TRAINING_PER_CLASS
        ]
        if len(classes) < self.MIN_CLASSES:
            return None
        usable = {u: f for u, f in usable.items() if f in classes}
        have = self._models.get(user_id)
        if have is not None and len(usable) - self._trained_on[user_id] < self.RETRAIN_AFTER:
            return have
        vectors = {u: self.vectorizer.vector(u) for u in usable}
        coplacement = build_coplacement(
            self._community_folders(filings, user_id)
            + [[u for u, f in usable.items() if f == c] for c in classes]
        )
        covisitation = covisit_evidence(
            self.repo, sorted(usable), now=self.clock(),
            decay=CoVisitMinerDaemon.decay,
        )
        model = EnhancedClassifier().fit(
            vectors, usable, self._current_graph(), coplacement,
            covisitation=covisitation,
        )
        self._models[user_id] = model
        self._trained_on[user_id] = len(usable)
        self._model_versions[user_id] += 1
        self.log.info(
            "model_trained", user=user_id, examples=len(usable),
            model_version=self._model_versions[user_id],
        )
        return model

    # -- classification -----------------------------------------------------------

    def run_once(self) -> int:
        watermark, _ = self.repo.versions.poll(self.name)
        filed = deliberate_filings(self.repo)
        now = self.clock()
        # The oldest unfiled visits of users a model can serve, trained in
        # order of their first such visit.  A user with no model drops out
        # before the window is taken: their visits never get filed, and
        # left in the window they would stay first in line on every run.
        # Only a user with a deliberate filing can have one (without one
        # ``_maybe_train`` returns None and does nothing else), so only
        # those users' visits are read, through the ``user_id`` index.
        visits = self.repo.db.table("visits")
        unfiled = sorted(
            (
                visit
                for user_id in {owner for owner, _, _ in filed}
                for visit in visits.select(
                    {"user_id": user_id, "topic_folder": None})
            ),
            key=lambda visit: visit["visit_id"],
        )
        models: dict[str, EnhancedClassifier | None] = {}
        by_user: dict[str, list[dict]] = defaultdict(list)
        room = self.BATCH * 4
        for visit in unfiled:
            user_id = visit["user_id"]
            if user_id not in models:
                models[user_id] = self._maybe_train(user_id, filed)
            if models[user_id] is None:
                continue
            by_user[user_id].append(visit)
            room -= 1
            if not room:
                break
        # The run's (visit_id, folder_id, confidence) decisions, stored
        # in one transaction before the ack.
        decisions: list[tuple[int, str, float]] = []
        for user_id, visits in by_user.items():
            model = models[user_id]
            batch: dict[str, SparseVector] = {}
            visit_for_url: dict[str, list[dict]] = defaultdict(list)
            for visit in visits[: self.BATCH]:
                vec = self.vectorizer.vector(visit["url"])
                if vec is None:
                    continue  # not crawled/published yet; later tick
                batch[visit["url"]] = vec
                visit_for_url[visit["url"]].append(visit)
            if not batch:
                continue
            predictions = model.predict_batch(batch)
            for url, (folder_id, confidence) in predictions.items():
                for visit in visit_for_url[url]:
                    origin = self.repo.visit_origin(visit["visit_id"])
                    with self.tracer.span(
                        "daemon.classifier.classify",
                        parent=_origin_context(origin),
                        url=url, folder=folder_id,
                    ) if origin is not None else _NO_SPAN:
                        decisions.append(
                            (visit["visit_id"], folder_id, confidence))
                self.repo.file_guess(
                    folder_id, url, confidence=confidence, now=now)
        self.repo.classify_visits(decisions)
        self.repo.versions.ack(self.name, watermark)
        done = len(decisions)
        self.classified_count += done
        return done

    def model_for(self, user_id: str) -> EnhancedClassifier:
        """The user's current trained model.

        Raises
        ------
        NotFitted
            If no model has been trained for *user_id* yet.
        """
        model = self._models.get(user_id)
        if model is None:
            raise NotFitted(f"no trained model for {user_id!r} yet")
        return model

    def model_version(self, user_id: str) -> int:
        """Monotone fit counter for the user's model (0 = never fit).

        Bumped on every (re)train; cache keys that embed it
        expire the moment a newer model exists.
        """
        return self._model_versions.get(user_id, 0)

    def retrain(self) -> int:
        """Fit a model for every user whose filings qualify, from what
        ``folder_pages`` holds now (a restarted server's models); returns
        how many users have one."""
        filed = deliberate_filings(self.repo)
        owners = dict.fromkeys(owner for owner, _, _ in filed)
        return sum(
            self._maybe_train(user_id, filed) is not None for user_id in owners
        )


# ---------------------------------------------------------------------------
# Theme analyzer
# ---------------------------------------------------------------------------

class ThemeDaemon:
    """Periodically consolidates all users' public folders into the
    community theme taxonomy (Figure 4)."""

    name = "themes"

    #: A folder needs this many fetched pages to become a folder document.
    MIN_PAGES_PER_FOLDER = 2
    #: New filings that rebuild the taxonomy at once, without waiting for
    #: the stream to settle.
    REBUILD_AFTER = 10

    def __init__(self, repo: MemexRepository, vectorizer: PageVectorizer) -> None:
        self.repo = repo
        self.vectorizer = vectorizer
        self.discovery = ThemeDiscovery()  # an experiment may assign another
        self.taxonomy: ThemeTaxonomy | None = None
        # (filings, documents in the shared vocabulary) the taxonomy
        # was built from / this daemon saw on its previous run.
        self._built_on = (0, 0)
        self._seen = (0, 0)
        self.rebuild_count = 0

    def folder_documents(self) -> list[FolderDoc]:
        """One :class:`FolderDoc` per (user, folder) with enough fetched pages."""
        contents: dict[tuple[str, str], list[str]] = defaultdict(list)
        for owner, folder_id, url in deliberate_filings(self.repo):
            contents[owner, folder_id].append(url)
        docs: list[FolderDoc] = []
        for (owner, folder_id), urls in contents.items():
            vectors = []
            for url in urls:
                vec = self.vectorizer.tfidf_vector(url)
                if vec is not None:
                    vectors.append(vec)
            if len(vectors) < self.MIN_PAGES_PER_FOLDER:
                continue
            docs.append(FolderDoc(
                user_id=owner,
                folder_path=folder_path(folder_id),
                vector=reduce(add, vectors, {}),
                num_pages=len(vectors),
            ))
        return docs

    def run_once(self) -> int:
        """Rebuild the taxonomy when its inputs moved: at once after
        :attr:`REBUILD_AFTER` new filings, otherwise on the first run
        that finds them unchanged since the run before.  While bookmarks
        and crawled pages keep arriving the rebuilds are batched; once
        they stop the taxonomy catches up, so what a quiescent server
        holds follows from what it stores, not from when this daemon
        happened to tick."""
        n_filed = len(deliberate_filings(self.repo))
        state = (n_filed, self.vectorizer.vocab.num_docs)
        settled, self._seen = state == self._seen, state
        if self.taxonomy is not None and (
            state == self._built_on
            or not settled and n_filed - self._built_on[0] < self.REBUILD_AFTER
        ):
            return 0
        docs = self.folder_documents()
        if len(docs) < 2:
            return 0
        self.taxonomy = self.discovery.discover(docs, self.vectorizer.vocab)
        self._built_on = state
        self.rebuild_count += 1
        return len(docs)


# ---------------------------------------------------------------------------
# Resource discovery
# ---------------------------------------------------------------------------

@dataclass
class Resource:
    """One recommended page for a theme."""

    url: str
    score: float
    authority: float
    similarity: float
    first_seen: float


class DiscoveryDaemon:
    """Topic-driven resource discovery (§4 / reference [5]).

    For every current theme, ranks fetched pages by a blend of topical
    similarity to the theme centroid, link authority (in-degree, the
    citation signal focused crawling uses), and freshness — surfacing
    "recent and/or authoritative sources, organized by topic".

    It also does the *focused crawling* move of reference [5]: un-fetched
    out-links of the most topical pages go to the crawler (bounded per
    run), so discovery actively expands beyond what users happened to
    visit.
    """

    name = "discovery"

    #: Out-links enqueued for the crawler per run.
    FRONTIER_PER_RUN = 16
    #: Resources kept per theme.
    PER_THEME = 10
    #: Score weights of topical similarity, link authority and freshness.
    SIMILARITY_WEIGHT = 1.0
    AUTHORITY_WEIGHT = 0.5
    FRESHNESS_WEIGHT = 0.3
    #: Age (seconds) at which a page's freshness reaches zero.
    FRESHNESS_HORIZON = 30 * 86400.0

    def __init__(
        self,
        repo: MemexRepository,
        vectorizer: PageVectorizer,
        themes: ThemeDaemon,
        *,
        crawler: CrawlerDaemon,
        clock: Callable[[], float] = lambda: 0.0,
    ) -> None:
        self.repo = repo
        self.vectorizer = vectorizer
        self.themes = themes
        self.crawler = crawler
        self.clock = clock
        self.recommendations: dict[str, list[Resource]] = {}
        self.frontier_enqueued = 0
        self._computed_for: tuple[int, int] = (-1, -1)

    def run_once(self) -> int:
        taxonomy = self.themes.taxonomy
        if taxonomy is None:
            return 0
        fetched = self.repo.db.table("pages").count(lambda r: r["fetched"])
        key = (self.themes.rebuild_count, fetched)
        if key == self._computed_for:
            return 0  # nothing new to discover
        self._computed_for = key

        pages = [
            row for row in self.repo.db.table("pages").scan() if row["fetched"]
        ]
        if not pages:
            return 0
        in_deg: dict[str, int] = defaultdict(int)
        for row in self.repo.db.table("links").scan():
            in_deg[row["dst"]] += 1
        max_deg = max(in_deg.values(), default=1) or 1
        now = self.clock()

        # One tf-idf weighting and one normalisation per page, one dot per
        # (page, theme): the centres are unit length in the taxonomy.
        leaves = taxonomy.leaves()
        scored: list[list[Resource]] = [[] for _ in leaves]
        for row in pages:
            vec = self.vectorizer.tfidf_vector(row["url"])
            if vec is None:
                continue
            authority = math.log1p(in_deg[row["url"]]) / math.log1p(max_deg)
            age = max(0.0, now - row["first_seen"])
            freshness = max(0.0, 1.0 - age / self.FRESHNESS_HORIZON)
            for resources, sim in zip(scored, taxonomy.similarities(vec)):
                if sim <= 0.0:
                    continue
                score = (
                    self.SIMILARITY_WEIGHT * sim
                    + self.AUTHORITY_WEIGHT * authority
                    + self.FRESHNESS_WEIGHT * freshness
                )
                resources.append(Resource(
                    url=row["url"], score=score, authority=authority,
                    similarity=sim, first_seen=row["first_seen"],
                ))
        produced = 0
        recommendations: dict[str, list[Resource]] = {}
        for theme, resources in zip(leaves, scored):
            resources.sort(key=lambda r: (-r.score, r.url))
            recommendations[theme.theme_id] = resources[: self.PER_THEME]
            produced += len(recommendations[theme.theme_id])
        self.recommendations = recommendations
        produced += self._expand_frontier(recommendations)
        return produced

    def _expand_frontier(
        self, recommendations: dict[str, list[Resource]]
    ) -> int:
        """Focused crawling: enqueue un-fetched out-links of top resources.

        Topic locality makes pages linked from highly topical pages likely
        topical themselves — the core bet of reference [5].
        """
        budget = self.FRONTIER_PER_RUN
        enqueued = 0
        for resources in recommendations.values():
            for res in resources[:3]:
                for dst in self.repo.out_links(res.url):
                    page = self.repo.db.table("pages").get(dst)
                    if page is not None and page["fetched"]:
                        continue
                    if enqueued >= budget:
                        return enqueued
                    self.crawler.enqueue(dst)
                    enqueued += 1
                    self.frontier_enqueued += 1
        return enqueued

    def for_theme(self, theme_id: str) -> list[Resource]:
        return list(self.recommendations.get(theme_id, ()))
