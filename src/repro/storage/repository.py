"""The two-store repository façade the Memex server works against.

Figure 3's "loosely synchronized data repositories": a relational database
for metadata plus a lightweight key-value store for term-level data, tied
together by the versioning coordinator.  Daemons and servlets never touch
the raw stores; they go through this façade, which also hands out the
integer ids of the ``visits``, ``links`` and ``folder_pages`` rows.  Those
ids are catalog state: each counter starts at the table's largest id + 1
when the catalog opens, so an acknowledged write commits to one log.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

from .engine import Namespace
from .kvstore import KVStore
from .relational import Database, Row, Transaction
from .schema import (
    ARCHIVE_COMMUNITY,
    ARCHIVE_MODES,
    ASSOC_BOOKMARK,
    ASSOC_GUESS,
    ASSOC_SOURCES,
    STAMPED_AT,
    create_catalog,
)
from .versioning import VersionCoordinator
from ..errors import SchemaError, StorageError
from ..obs import (
    Clock,
    LogHub,
    MetricsRegistry,
    Tracer,
    null_registry,
    null_tracer,
)


#: The ``cursors`` row of the co-visit miner.
COVISIT_CURSOR = "covisit"


class ChangeStamps:
    """Monotone change counters over the catalog's mutable tables.

    The versioning coordinator covers what the *crawler* produces; these
    stamps cover the immediate UI writes that bypass it (visits,
    bookmarks, folder edits, reclassifications).  Each is a plain int
    bumped on the corresponding write path — the same zero-cost pattern
    as the repository's pull counters — and the read-path caches fold the
    stamps a result depends on into its validity, so a cached search or
    trail can never outlive the writes that would change it.

    Stamps only ever increase; equality of a stamp tuple therefore means
    "none of these tables changed in between".

    ``engagement`` is the same idea per user: one counter over what a
    user's theme profile reads — that user's visits and the contents of
    the folders they own — so a profile is rebuilt for the users whose
    archive moved, not for everyone.  Like the table stamps it is bumped
    *after* the rows are committed and read *before* they are: a reader
    can pair new rows with an old stamp (and recompute once more than
    needed) but never old rows with a new stamp.
    """

    __slots__ = ("visits", "assocs", "classifications", "folders",
                 "pages", "links", "users", "covisits", "engagement")

    def __init__(self) -> None:
        self.visits = 0
        self.assocs = 0
        self.classifications = 0
        self.folders = 0
        self.pages = 0
        self.links = 0
        self.users = 0
        self.covisits = 0
        self.engagement: dict[str, int] = {}

    def engaged(self, user_id: str) -> None:
        """Bump *user_id*'s engagement stamp (caller holds the repository
        lock, as for every other stamp)."""
        self.engagement[user_id] = self.engagement.get(user_id, 0) + 1


class _StagedPages:
    """The page upserts of one batch, deduplicated for one transaction.

    Staging a URL any number of times leaves what as many sequential
    :meth:`MemexRepository.upsert_page` calls would: the first occurrence
    of a new URL sets ``first_seen`` and ``front_page``, later ones only
    add their changes and move ``last_seen``.
    """

    def __init__(self, db: Database) -> None:
        self._pages = db.table("pages")
        self.inserts: dict[str, Row] = {}
        self.updates: dict[str, Row] = {}

    def upsert(
        self, url: str, now: float, front_page: bool = False, **changes: Any,
    ) -> None:
        changes["last_seen"] = now
        if url in self.inserts:
            self.inserts[url].update(changes)
        elif url in self.updates:
            self.updates[url].update(changes)
        elif self._pages.get(url) is None:
            row = self.inserts[url] = {
                "url": url,
                "title": None,
                "fetched": False,
                "content_hash": None,
                "first_seen": now,
                "last_seen": now,
                "produced_version": None,
                "front_page": front_page,
            }
            row.update(changes)
        else:
            self.updates[url] = changes

    def apply(self, txn: Transaction) -> int:
        """Stage everything on *txn*; returns the number of rows."""
        txn.insert_many("pages", self.inserts.values())
        for url, changes in self.updates.items():
            txn.update("pages", url, changes)
        return len(self.inserts) + len(self.updates)


class MemexRepository:
    """Owns the RDBMS, the KV store, the version coordinator and id counters.

    Parameters
    ----------
    root:
        Directory for persistent state, or ``None`` for a fully in-memory
        repository (the default for simulations and tests).
    clock:
        Wall-clock source for default timestamps; injectable so tests and
        the obs subsystem share one deterministic time source.
    metrics:
        Observability registry threaded into the relational engine, the
        KV store, and the version coordinator; defaults to the shared
        disabled registry.
    tracer:
        When provided, visit writes run under ``storage.*`` child spans
        (only when a request span is already active — storage never
        *starts* a trace).
    log_hub:
        When provided, the version coordinator logs publishes/aborts
        through it (component ``versioning``).
    """

    #: Bound on the in-memory visit -> origin-traceparent side table.
    VISIT_ORIGIN_CAP = 4096

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        sync: bool = False,
        clock: Clock = time.time,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        log_hub: LogHub | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.clock = clock
        self.metrics = metrics if metrics is not None else null_registry()
        self.tracer = tracer if tracer is not None else null_tracer()
        if self.root is not None:
            leftover = self.root / "terms.lsm"
            if leftover.exists():
                # Opening terms.kv beside it would present an empty
                # term store over a populated catalog.
                raise StorageError(
                    f"{leftover} was written by the removed "
                    "'lsm' storage engine and cannot be opened; re-ingest "
                    "into a fresh data directory"
                )
            self.root.mkdir(parents=True, exist_ok=True)
            self.db = Database(
                self.root / "catalog.wal", sync=sync, metrics=self.metrics,
            )
            self.kv = KVStore(
                self.root / "terms.kv", sync=sync, metrics=self.metrics,
            )
        else:
            self.db = Database(metrics=self.metrics)
            self.kv = KVStore(metrics=self.metrics)
        create_catalog(self.db)
        self.versions = VersionCoordinator(
            metrics=self.metrics,
            log=log_hub.logger("versioning") if log_hub is not None else None,
        )
        # Visit -> origin traceparent, bounded and in-memory: trace
        # linkage is an observability aid for *recent* visits, not part
        # of the durable schema (old WALs must keep replaying unchanged).
        self._visit_origins: dict[int, str] = {}
        self._visit_origin_order: deque[int] = deque()
        #: Monotone per-table change counters (see :class:`ChangeStamps`);
        #: the read-path caches' signal for writes versioning doesn't cover.
        self.stamps = ChangeStamps()
        # Repository lock ("repository" rank in repro.locks.LOCK_ORDER,
        # above the storage-engine locks it nests over): serializes the
        # façade's compound write paths — check-then-act upserts, id
        # allocation + row insertion, stamp/counter bumps, the bounded
        # visit-origin table — so each façade mutation is atomic.  Reads
        # go straight to the underlying stores, which lock themselves.
        self._repo_lock = threading.RLock()
        # Next id per table, read back from the catalog (DESIGN.md §15).
        self._next_id = {
            table: self.db.table(table).max_key(default=0) + 1
            for table in ("visits", "links", "folder_pages")
        }
        # Term-level data the catalog does not hold (the paper's "several
        # text-related indices in Berkeley DB"; the index keeps its own).
        self.rawtext = Namespace(self.kv, "rawtext")

    # -- id allocation ------------------------------------------------------------

    def _take_ids(self, table: str, n: int) -> range:
        """*n* consecutive fresh ids for *table*; the caller holds the
        repository lock and inserts the rows in its next transaction.  Ids
        taken for a transaction that fails are skipped, not reused."""
        start = self._next_id[table]
        self._next_id[table] = start + n
        return range(start, start + n)

    # -- users -----------------------------------------------------------------------

    def add_user(
        self,
        user_id: str,
        *,
        name: str | None = None,
        community: str | None = None,
        archive_mode: str = ARCHIVE_COMMUNITY,
        now: float | None = None,
    ) -> None:
        if archive_mode not in ARCHIVE_MODES:
            raise SchemaError(f"unknown archive mode {archive_mode!r}")
        with self._repo_lock:
            self.db.insert("users", {
                "user_id": user_id,
                "name": name or user_id,
                "community": community,
                "archive_mode": archive_mode,
                "created_at": now if now is not None else self.clock(),
            })
            self.stamps.users += 1

    def get_user(self, user_id: str) -> Row | None:
        return self.db.table("users").get(user_id)

    def set_archive_mode(self, user_id: str, mode: str) -> None:
        if mode not in ARCHIVE_MODES:
            raise SchemaError(f"unknown archive mode {mode!r}")
        with self._repo_lock:
            self.db.update("users", user_id, {"archive_mode": mode})
            self.stamps.users += 1

    # -- pages and links -------------------------------------------------------------

    def upsert_page(
        self,
        url: str,
        *,
        title: str | None = None,
        text: str | None = None,
        front_page: bool = False,
        now: float,
        produced_version: int | None = None,
    ) -> bool:
        """Record a page; returns True when the URL was new.

        Raw text is stashed in the KV store (``rawtext`` namespace) keyed by
        URL, so term-level consumers never round-trip through the RDBMS.
        """
        content_hash = (
            hashlib.sha1(text.encode("utf-8")).hexdigest() if text is not None else None
        )
        with self._repo_lock:
            return self._upsert_page_locked(
                url, title=title, text=text, front_page=front_page,
                now=now, produced_version=produced_version,
                content_hash=content_hash,
            )

    def _upsert_page_locked(
        self,
        url: str,
        *,
        title: str | None,
        text: str | None,
        front_page: bool,
        now: float,
        produced_version: int | None,
        content_hash: str | None,
    ) -> bool:
        pages = self.db.table("pages")
        existing = pages.get(url)
        if existing is None:
            self.db.insert("pages", {
                "url": url,
                "title": title,
                "fetched": text is not None,
                "content_hash": content_hash,
                "first_seen": now,
                "last_seen": now,
                "produced_version": produced_version,
                "front_page": front_page,
            })
            created = True
        else:
            changes: Row = {"last_seen": now}
            if text is not None:
                changes.update({
                    "fetched": True,
                    "content_hash": content_hash,
                    "produced_version": produced_version,
                })
            if title is not None:
                changes["title"] = title
            self.db.update("pages", url, changes)
            created = False
        if text is not None:
            self.rawtext.put(url.encode("utf-8"), text.encode("utf-8"))
        self.stamps.pages += 1
        return created

    def page_text(self, url: str) -> str | None:
        raw = self.rawtext.get(url.encode("utf-8"))
        return raw.decode("utf-8") if raw is not None else None

    def add_link(self, src: str, dst: str, *, now: float) -> int:
        with self._repo_lock:
            link_id, = self._take_ids("links", 1)
            self.db.insert("links", {
                "link_id": link_id, "src": src, "dst": dst, "discovered_at": now,
            })
            self.stamps.links += 1
            return link_id

    def record_fetch_batch(
        self,
        fetched: list[dict[str, Any]],
        *,
        now: float,
        produced_version: int | None = None,
    ) -> None:
        """Group commit for one crawler version.

        Each item is ``{url, title, text, front_page, out_links}``.
        Stores what ``upsert_page(url, title=, text=, ...)`` and then,
        per out-link the catalog does not hold yet, ``upsert_page(dst)``
        + ``add_link(url, dst)`` would store item by item — a page that
        is first a link stub and then fetched in the same batch keeps the
        ``front_page`` it was inserted with — but every page and link row
        lands in ONE relational transaction and every raw text in ONE
        term-store write: two fsyncs for the version, not three per page.
        Rows are committed before texts, so a reader never finds a text
        whose page row (and title) is still the unfetched stub.
        """
        with self._repo_lock:
            self._record_fetch_batch(fetched, now, produced_version)

    def _record_fetch_batch(
        self,
        fetched: list[dict[str, Any]],
        now: float,
        produced_version: int | None,
    ) -> None:
        pages = _StagedPages(self.db)
        links: list[tuple[str, str]] = []
        texts: list[tuple[bytes, bytes]] = []
        known: dict[str, set[str]] = {}        # src -> dsts already linked
        for item in fetched:
            url, text = item["url"], item["text"].encode("utf-8")
            changes = {
                "fetched": True,
                "content_hash": hashlib.sha1(text).hexdigest(),
                "produced_version": produced_version,
            }
            if item["title"] is not None:
                changes["title"] = item["title"]
            pages.upsert(url, now, item["front_page"], **changes)
            texts.append((url.encode("utf-8"), text))
            if url not in known:
                known[url] = set(self.out_links(url))
            for dst in item["out_links"]:
                if dst not in known[url]:
                    known[url].add(dst)
                    pages.upsert(dst, now)
                    links.append((url, dst))
        link_ids = self._take_ids("links", len(links))
        with self.db.begin() as txn:
            pages.apply(txn)
            txn.insert_many("links", (
                {"link_id": link_id, "src": src, "dst": dst,
                 "discovered_at": now}
                for link_id, (src, dst) in zip(link_ids, links)
            ))
        self.rawtext.put_many(texts)
        self.stamps.pages += len(fetched) + len(links)
        self.stamps.links += len(links)

    def out_links(self, url: str) -> list[str]:
        return [r["dst"] for r in self.db.table("links").select({"src": url})]

    # -- visits -------------------------------------------------------------------------

    def _remember_origin(self, visit_id: int, origin: str | None) -> None:
        """Retain the visit's origin traceparent (bounded, best-effort)."""
        if origin is None:
            return
        self._visit_origins[visit_id] = origin
        self._visit_origin_order.append(visit_id)
        while len(self._visit_origin_order) > self.VISIT_ORIGIN_CAP:
            evicted = self._visit_origin_order.popleft()
            self._visit_origins.pop(evicted, None)

    def visit_origin(self, visit_id: int) -> str | None:
        """The traceparent of the request that recorded *visit_id*, if
        still retained (the side table is bounded; misses mean unlinked,
        never an error)."""
        return self._visit_origins.get(visit_id)

    def record_visit_batch(self, items: list[dict[str, Any]]) -> list[int]:
        """Group commit for the visit servlet.

        Each item is ``{user_id, url, at, session_id, referrer,
        archive_mode}`` plus an optional ``origin`` traceparent.  Every
        page upsert plus every visit row lands in ONE relational
        transaction — one WAL record, one fsync — however many items
        there are.  Page upserts are deduplicated within the batch
        (first occurrence sets ``first_seen``, the last one wins
        ``last_seen``), exactly what sequential :meth:`upsert_page` calls
        would have produced.  Atomic: on constraint failure nothing is
        applied (allocated ids are simply skipped).

        Ordering guarantee: the returned ids are consecutive, strictly
        increasing, and positionally aligned with *items* —
        ``result[i]`` is the id of ``items[i]``, and the whole block
        sorts after every previously recorded visit.  A batch is
        therefore indistinguishable, id-order-wise, from recording its
        items one batch of one at a time in list order, so consumers
        that replay visits by id (crawler queues, trail reconstruction)
        see the same sequence either way.  Items are NOT re-sorted by
        their ``at`` timestamp — callers who need id order to agree with
        time order must submit items in time order, which the applet's
        batching client does by buffering events as they occur.
        """
        if not items:
            return []
        with self.tracer.child_span(
            "storage.record_visit_batch", items=len(items),
        ):
            with self._repo_lock:
                visit_ids = self._record_visit_batch(items)
                for item, visit_id in zip(items, visit_ids):
                    self._remember_origin(visit_id, item.get("origin"))
        return visit_ids

    def _record_visit_batch(self, items: list[dict[str, Any]]) -> list[int]:
        visit_ids = list(self._take_ids("visits", len(items)))
        pages = _StagedPages(self.db)
        for item in items:
            pages.upsert(item["url"], item["at"])
        with self.db.begin() as txn:
            n_pages = pages.apply(txn)
            txn.insert_many("visits", (
                {
                    "visit_id": visit_id,
                    "user_id": item["user_id"],
                    "url": item["url"],
                    "at": item["at"],
                    "session_id": item["session_id"],
                    "referrer": item["referrer"],
                    "archive_mode": item["archive_mode"],
                    "topic_folder": None,
                    "topic_confidence": None,
                }
                for item, visit_id in zip(items, visit_ids)
            ))
        self.stamps.pages += n_pages
        self.stamps.visits += len(items)
        for user_id in {item["user_id"] for item in items}:
            self.stamps.engaged(user_id)
        return visit_ids

    def classify_visits(self, decisions: list[tuple[int, str, float]]) -> None:
        """Annotate visit rows with ``(visit_id, folder_id, confidence)``
        decisions — the write behind Figure 1's '?' guesses — in one
        transaction: a classifier run is one commit, not one per visit."""
        with self._repo_lock:
            with self.db.begin() as txn:
                for visit_id, folder_id, confidence in decisions:
                    txn.update("visits", visit_id, {
                        "topic_folder": folder_id,
                        "topic_confidence": confidence,
                    })
            self.stamps.classifications += len(decisions)

    def user_visits(
        self,
        user_id: str,
        *,
        since: float | None = None,
        until: float | None = None,
    ) -> list[Row]:
        rows = self.db.table("visits").select({"user_id": user_id}, order_by="at")
        if since is not None:
            rows = [r for r in rows if r["at"] >= since]
        if until is not None:
            rows = [r for r in rows if r["at"] <= until]
        return rows

    def community_visits(
        self,
        *,
        since: float | None = None,
        public_only: bool = True,
    ) -> list[Row]:
        """Visits archived for community use (optionally since a time)."""
        def pred(r: Row) -> bool:
            if public_only and r["archive_mode"] != ARCHIVE_COMMUNITY:
                return False
            return since is None or r["at"] >= since
        return self.db.table("visits").select(pred, order_by="at")

    # -- co-visitation pairs ------------------------------------------------------------

    def upsert_covisits(
        self,
        increments: dict[tuple[str, str], float],
        *,
        now: float,
        decay: float = 0.0,
        through: int,
        rounds: int,
    ) -> int:
        """Fold a batch of co-visitation increments into the matrix.

        Each key is an unordered URL pair; an existing row's count first
        decays by ``exp(-decay * (now - last_at))`` (so stale evidence
        fades at read-compatible rates), then the increment is added.
        One relational transaction for the whole batch, which also moves
        the miner's cursor to *through* (the last visit id the batch
        folds in) after *rounds* mining rounds, so the stored counts and
        the cursor never disagree; bumps the ``covisits`` change stamp
        the related-pages cache watches when a count moved.
        """
        with self._repo_lock:
            table = self.db.table("covisits")
            inserts: list[Row] = []
            updates: dict[str, Row] = {}
            for (url_a, url_b), inc in increments.items():
                a, b = sorted((url_a, url_b))
                pair_id = f"{a}\t{b}"
                row = updates.get(pair_id) or table.get(pair_id)
                if row is None:
                    inserts.append({
                        "pair_id": pair_id, "url_a": a, "url_b": b,
                        "count": float(inc), "last_at": now,
                    })
                else:
                    aged = row["count"] * math.exp(
                        -decay * max(now - row["last_at"], 0.0))
                    updates[pair_id] = {
                        **row, "count": aged + float(inc), "last_at": now,
                    }
            cursor = {"visit_id": through, "rounds": rounds}
            with self.db.begin() as txn:
                txn.insert_many("covisits", inserts)
                for pair_id, row in updates.items():
                    txn.update("covisits", pair_id, {
                        "count": row["count"], "last_at": row["last_at"],
                    })
                if self.db.table("cursors").get(COVISIT_CURSOR) is None:
                    txn.insert("cursors", {"daemon": COVISIT_CURSOR, **cursor})
                else:
                    txn.update("cursors", COVISIT_CURSOR, cursor)
            if increments:
                self.stamps.covisits += 1
        return len(inserts) + len(updates)

    def covisit_cursor(self) -> tuple[int, int]:
        """``(last visit id folded in, mining rounds)`` of the co-visit
        miner as its last committed batch left them; ``(0, 0)`` before
        the first.  A matrix stored with no cursor was mined by a miner
        that kept its cursor in memory and mined every visit again on
        each start, so it covers every visit stored."""
        row = self.db.table("cursors").get(COVISIT_CURSOR)
        if row is not None:
            return row["visit_id"], row["rounds"]
        if not len(self.db.table("covisits")):
            return 0, 0
        return self.db.table("visits").max_key(default=0), 0

    def covisits_for(self, url: str) -> list[tuple[str, float, float]]:
        """``(other_url, count, last_at)`` rows touching *url*, best first."""
        table = self.db.table("covisits")
        out: list[tuple[str, float, float]] = []
        for row in table.select({"url_a": url}):
            out.append((row["url_b"], row["count"], row["last_at"]))
        for row in table.select({"url_b": url}):
            out.append((row["url_a"], row["count"], row["last_at"]))
        out.sort(key=lambda t: (-t[1], t[0]))
        return out

    def prune_covisits(self, *, now: float, decay: float, floor: float) -> int:
        """Compaction: drop pairs whose decayed count fell below *floor*."""
        with self._repo_lock:
            doomed = [
                row["pair_id"]
                for row in self.db.table("covisits").scan()
                if row["count"] * math.exp(-decay * max(now - row["last_at"], 0.0))
                < floor
            ]
            if doomed:
                with self.db.begin() as txn:
                    for pair_id in doomed:
                        txn.delete("covisits", pair_id)
                self.stamps.covisits += 1
        return len(doomed)

    # -- folders and associations ------------------------------------------------------------

    def add_folder(
        self,
        folder_id: str,
        owner: str,
        name: str,
        parent: str | None,
        *,
        now: float,
    ) -> None:
        with self._repo_lock:
            self.db.insert("folders", {
                "folder_id": folder_id, "owner": owner, "name": name,
                "parent": parent, "created_at": now,
            })
            self.stamps.folders += 1

    def user_folders(self, owner: str) -> list[Row]:
        return self.db.table("folders").select({"owner": owner})

    def _folder_engaged(self, folder_id: str) -> None:
        """Bump the engagement stamp of the folder's owner."""
        folder = self.db.table("folders").get(folder_id)
        if folder is not None:
            self.stamps.engaged(folder["owner"])

    def associate(
        self,
        folder_id: str,
        url: str,
        source: str,
        *,
        confidence: float | None = None,
        now: float,
    ) -> int:
        if source not in ASSOC_SOURCES:
            raise SchemaError(f"unknown association source {source!r}")
        with self._repo_lock:
            with self.db.begin() as txn:
                assoc_id = self._insert_assoc(
                    txn, folder_id, url, source, confidence, now)
            self.stamps.assocs += 1
            self._folder_engaged(folder_id)
            return assoc_id

    def bookmark(self, owner: str, folder_id: str, url: str, *, now: float) -> int:
        """File *url* in *owner*'s *folder_id* as a bookmark; returns the
        association's id.  The page upsert, the drop of *owner*'s
        classifier guesses for *url* (a deliberate filing supersedes them)
        and the association row are ONE transaction: one catalog fsync."""
        with self._repo_lock:
            pages = _StagedPages(self.db)
            pages.upsert(url, now)
            guesses = self._guesses(owner, url)
            with self.db.begin() as txn:
                pages.apply(txn)
                for guess in guesses:
                    txn.delete("folder_pages", guess)
                assoc_id = self._insert_assoc(
                    txn, folder_id, url, ASSOC_BOOKMARK, None, now)
            self.stamps.pages += 1
            self.stamps.assocs += 1 + len(guesses)
            self.stamps.engaged(owner)
            return assoc_id

    def file_guess(
        self, folder_id: str, url: str, *, confidence: float, now: float,
    ) -> None:
        """File *url* in *folder_id* as the classifier's guess and delete
        the owner's guesses for it in other folders, in one transaction.
        A row already filing *url* in *folder_id* ends the walk over
        :meth:`page_folders`: then only the guesses met before it go.
        Each row written or deleted bumps ``assocs`` and the owner's
        engagement."""
        with self._repo_lock:
            folders = self.db.table("folders")
            owner = (folders.get(folder_id) or {}).get("owner")
            doomed: list[int] = []
            filed = False
            for row in self.page_folders(url):
                if row["folder_id"] == folder_id:
                    filed = True
                    break
                if (
                    owner is not None and row["source"] == ASSOC_GUESS
                    and (folders.get(row["folder_id"]) or {}).get("owner") == owner
                ):
                    doomed.append(row["assoc_id"])
            if filed and not doomed:
                return
            with self.db.begin() as txn:
                for assoc_id in doomed:
                    txn.delete("folder_pages", assoc_id)
                if not filed:
                    self._insert_assoc(
                        txn, folder_id, url, ASSOC_GUESS, confidence, now)
            changed = len(doomed) + (not filed)
            self.stamps.assocs += changed
            if owner is not None:
                for _ in range(changed):
                    self.stamps.engaged(owner)

    def drop_guesses(self, owner: str, url: str) -> int:
        """Delete the classifier's guesses filing *url* in *owner*'s
        folders, in one transaction; returns how many went."""
        with self._repo_lock:
            guesses = self._guesses(owner, url)
            with self.db.begin() as txn:
                for guess in guesses:
                    txn.delete("folder_pages", guess)
            self.stamps.assocs += len(guesses)
        return len(guesses)

    def _guesses(self, owner: str, url: str) -> list[int]:
        """The ids of the guesses filing *url* in *owner*'s folders."""
        folders = self.db.table("folders")
        return [
            row["assoc_id"] for row in self.page_folders(url)
            if row["source"] == ASSOC_GUESS
            and (folders.get(row["folder_id"]) or {}).get("owner") == owner
        ]

    def _insert_assoc(
        self,
        txn: Transaction,
        folder_id: str,
        url: str,
        source: str,
        confidence: float | None,
        now: float,
    ) -> int:
        assoc_id, = self._take_ids("folder_pages", 1)
        txn.insert("folder_pages", {
            "assoc_id": assoc_id,
            "folder_id": folder_id,
            "url": url,
            "source": source,
            "confidence": confidence,
            "at": now,
        })
        return assoc_id

    def folder_pages(self, folder_id: str, *, sources: tuple[str, ...] | None = None) -> list[Row]:
        rows = self.db.table("folder_pages").select({"folder_id": folder_id})
        if sources is not None:
            rows = [r for r in rows if r["source"] in sources]
        return rows

    def page_folders(self, url: str) -> list[Row]:
        return self.db.table("folder_pages").select({"url": url})

    def dissociate(self, folder_id: str, url: str, *, sources: tuple[str, ...] | None = None) -> int:
        """Remove folder-page associations; returns how many were removed."""
        removed = 0
        with self._repo_lock:
            for row in self.folder_pages(folder_id, sources=sources):
                if row["url"] == url:
                    self.db.delete("folder_pages", row["assoc_id"])
                    removed += 1
            self.stamps.assocs += removed
            if removed:
                self._folder_engaged(folder_id)
        return removed

    # -- restart -------------------------------------------------------------------------------------

    def latest_timestamp(self) -> float:
        """The latest clock value any catalog row was stamped with (0.0
        when there is none): the simulation time a restart resumes at."""
        return max((
            row[column]
            for table, column in STAMPED_AT.items()
            for row in self.db.table(table).scan()
        ), default=0.0)

    # -- lifecycle -----------------------------------------------------------------------------------

    def storage_stats(self) -> dict[str, Any]:
        """The term store's operational stats (see ``KVStore.stats``),
        keyed for the stats servlet."""
        return dict(self.kv.stats())

    def close(self) -> None:
        self.db.close()
        self.kv.close()

    def __enter__(self) -> "MemexRepository":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
