"""The four benchmark workloads: inputs, load shape, correctness checks.

Each workload is a class with the same small surface:

``sizes(smoke)``      ``build_workload`` kwargs for its archive;
``plan(...)``         parent-side inputs generated from the seed;
``spec_extra()``      what the child needs beyond the archive;
``drive(...)``        runs the load against a live child and returns a
                      :class:`Outcome` (samples, windows, checks).

The seed only ever reaches ``build_workload`` / ``random.Random`` here;
the server child sees generated inputs.  See ``README.md`` for why these
four and which layers each one exercises.
"""

from __future__ import annotations

import hashlib
import random
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Iterator

from harness import (
    Child,
    LoadResult,
    Request,
    CpuWindow,
    closed_loop,
    dir_bytes,
)
from repro.loadgen import build_schedule
from repro.loadgen.schedule import DEFAULT_MIX
from repro.server.events import VisitEvent
from repro.server.transport import SocketTransport

CONTROL_USER = "bench-control"
VISITS_PER_BATCH = 8
#: Every archive (corpus + surf history) is generated from this seed: it
#: is the benchmark's data set.  ``--seed`` varies the traffic offered to
#: it.  A small simulated community differs by +-20 % in events and
#: fetched pages from seed to seed, which would swamp every bound.
ARCHIVE_SEED = 23
#: ``read_hot`` runs this long before its measured window opens.
WARM_S = 2.0


@dataclass
class Outcome:
    """What one untraced run observed (before metric shaping)."""

    load: LoadResult                       # the measured requests
    #: The interval (perf_counter) the measured requests are divided by
    #: for throughput: the window they were sent in, or — ``ingest`` —
    #: first send to fully mined.
    rate_window: tuple[float, float]
    #: Server CPU over the busy window: the rate window, or through to
    #: mined where mining outlives the last request.
    cpu: CpuWindow
    checks: dict[str, bool] = field(default_factory=dict)
    #: Instants (perf_counter) and counts the per-layer metrics are made
    #: from: ``last_ack``, ``mined``, ``acked``, ``disk_bytes``, ...
    extras: dict[str, float] = field(default_factory=dict)
    metrics_before: dict[str, Any] = field(default_factory=dict)
    metrics_after: dict[str, Any] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)


def _zipf_cum(n: int, exponent: float = 1.1) -> list[float]:
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** exponent
        out.append(total)
    return out


def _history_end(archive: Any) -> float:
    return max((e.at for e in archive.events), default=0.0)


def _visited_urls(archive: Any) -> Counter:
    return Counter(
        e.url for e in archive.events if isinstance(e, VisitEvent)
    )


def _pages_by_topic(archive: Any) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for url in sorted(archive.corpus.pages):
        out.setdefault(archive.corpus.pages[url].topic, []).append(url)
    return out


def _ask(child: Child, servlet: str) -> dict[str, Any]:
    """One control request on a connection of its own: the server closes
    a connection idle for 30 s, and a measured window is longer."""
    with SocketTransport(*child.address, response_timeout=30.0) as control:
        response = control.request(CONTROL_USER, {"servlet": servlet})
    if response.get("status") != "ok":
        raise RuntimeError(f"{servlet} failed: {response}")
    return response


def metrics_pull(child: Child) -> dict[str, Any]:
    return _ask(child, "metrics_pull")


def stats(child: Child) -> dict[str, Any]:
    return _ask(child, "stats")


def _shard_stats(snapshot: dict[str, Any]) -> list[dict[str, Any]]:
    by_shard = snapshot.get("by_shard")
    return list(by_shard.values()) if by_shard else [snapshot]


def covisit_items(snapshot: dict[str, Any]) -> int:
    return sum(
        int(s.get("daemons", {}).get("covisit", {}).get("items", 0))
        for s in _shard_stats(snapshot)
    )


def _daemon_items(snapshot: dict[str, Any]) -> list[int]:
    return [
        int(row.get("items", 0))
        for shard in _shard_stats(snapshot)
        for _name, row in sorted(shard.get("daemons", {}).items())
    ]


def wait_mined(
    child: Child,
    *,
    covisit_target: int,
    poll_s: float = 0.25,
    timeout_s: float = 120.0,
) -> tuple[float, dict[str, Any]]:
    """Block until the archive is fully mined; returns (instant, stats).

    Mined means two consecutive ``stats`` polls with an empty crawl
    queue, every versioning consumer caught up, the co-visit miner having
    consumed every acknowledged visit, and no daemon's item count moving
    between the polls.  The instant returned is the first of the two.
    """
    deadline = time.perf_counter() + timeout_s
    previous: tuple[float, list[int]] | None = None
    while time.perf_counter() < deadline:
        snap = stats(child)
        now = time.perf_counter()
        quiet = (
            int(snap.get("crawl_backlog", 0)) == 0
            # The read caches' consumers only ack on reads or on
            # MemexServer.tick(); the CLI serve loop the child mirrors
            # ticks the scheduler alone, so they legitimately lag here.
            and all(
                int(lag) == 0
                for name, lag in snap.get("versioning_lag", {}).items()
                if not name.startswith("cache.")
            )
            and covisit_items(snap) >= covisit_target
        )
        items = _daemon_items(snap)
        if quiet and previous is not None and previous[1] == items:
            return previous[0], snap
        previous = (now, items) if quiet else None
        time.sleep(poll_s)
    raise RuntimeError(f"archive not mined within {timeout_s}s")


def _no_check(_req: Request, _response: Any) -> bool:
    return True


# ------------------------------------------------------------------- read_hot


class ReadHot:
    """Closed loop, all cache hits: the wire, codec, dispatch and cache-hit
    path do the work; ranking, storage and daemons do none."""

    name = "read_hot"
    topology = "single"
    sync = False
    on_disk = False
    n_queries = 64

    @staticmethod
    def sizes(smoke: bool) -> dict[str, Any]:
        if smoke:
            return {"num_users": 3, "days": 3, "pages_per_leaf": 4}
        return {"num_users": 6, "days": 8, "pages_per_leaf": 12}

    def plan(self, archive: Any, seed: int, seconds: float) -> None:
        self.archive = archive
        self.seed = seed
        self.seconds = seconds
        rng = random.Random(f"{seed}:read_hot")
        leaves = archive.root.leaves()
        queries: list[str] = []
        while len(queries) < self.n_queries:
            leaf = leaves[len(queries) % len(leaves)]
            query = " ".join(rng.sample(leaf.seed_terms, 2))
            if query not in queries:
                queries.append(query)
        self.queries = queries
        self.popular = [u for u, _n in _visited_urls(archive).most_common(64)]
        self.users = [p.user_id for p in archive.profiles[:2]]
        self.first: dict[tuple, Any] = {}
        self.mismatches = 0

    def spec_extra(self) -> dict[str, Any]:
        return {"users": [CONTROL_USER]}

    def _distinct(self, user: str, folders: list[str]) -> list[Request]:
        reqs = [
            Request("search", user, {
                "servlet": "search", "query": q, "limit": 10, "offset": 0,
            }, ("search", user, q))
            for q in self.queries
        ]
        reqs += [
            Request("trail", user, {
                "servlet": "trail", "folder_path": path, "window_days": 14.0,
            }, ("trail", user, path))
            for path in folders
        ]
        reqs += [
            Request("related_pages", user, {
                "servlet": "related_pages", "url": url, "k": 10,
            }, ("related", user, url))
            for url in self.popular
        ]
        reqs.append(Request(
            "folders_get", user, {"servlet": "folders_get"}, ("folders", user),
        ))
        return reqs

    def _client(self, index: int, pools: dict[str, list[Request]]) -> Iterator[Request]:
        rng = random.Random(f"{self.seed}:read_hot:client{index}")
        q_cum = _zipf_cum(len(pools["search"]))
        u_cum = _zipf_cum(len(pools["related_pages"]))
        while True:
            r = rng.random()
            if r < 0.70:
                yield rng.choices(pools["search"], cum_weights=q_cum)[0]
            elif r < 0.85:
                yield rng.choice(pools["trail"])
            elif r < 0.95:
                yield rng.choices(pools["related_pages"], cum_weights=u_cum)[0]
            else:
                yield pools["folders_get"][0]

    def _check(self, req: Request, response: Any) -> bool:
        first = self.first.get(req.tag)
        if first is None:
            self.first[req.tag] = response
            return True
        if response != first:
            self.mismatches += 1
            return False
        return True

    def _primed_clients(self, transport: Any) -> list[Iterator[Request]]:
        """Ask every distinct request once (its first answer is computed
        and remembered), so everything after is a cache hit."""
        clients = []
        for index, user in enumerate(self.users):
            got = transport.request(user, {"servlet": "folders_get"})
            folders = [f["path"] for f in got.get("folders", [])]
            if not folders:
                folders = sorted(self.archive.profiles[index].folders)[:1]
            pools: dict[str, list[Request]] = {}
            for req in self._distinct(user, folders):
                pools.setdefault(req.kind, []).append(req)
                self._check(req, transport.request(req.user, req.payload))
            clients.append(self._client(index, pools))
        return clients

    def ladder_sample(self, transport: Any, n: int) -> list[Request]:
        client = self._primed_clients(transport)[0]
        return [next(client) for _ in range(n)]

    def drive(self, child: Child, root: str | None) -> Outcome:
        transport = SocketTransport(*child.address)
        try:
            clients = self._primed_clients(transport)
            closed_loop(transport, clients, self._check, seconds=WARM_S)
            before = metrics_pull(child)
            with CpuWindow(child.pids) as cpu:
                load = closed_loop(
                    transport, clients, self._check, seconds=self.seconds)
            after = metrics_pull(child)
        finally:
            transport.close()
        return Outcome(
            load=load, rate_window=(load.started, load.ended), cpu=cpu,
            checks={
                "warm_equals_first": self.mismatches == 0,
                "distinct_requests_primed": len(self.first) > 0,
            },
            metrics_before=before, metrics_after=after,
            notes={"distinct_requests": len(self.first)},
        )


# ---------------------------------------------------------------- search_cold


class SearchCold:
    """Closed loop, every query new: ranking, snippets, dense/fusion, visit
    scans and cache put/evict dominate; the wire is a few percent."""

    name = "search_cold"
    topology = "single"
    sync = False
    on_disk = False
    n_probes = 32

    sizes = staticmethod(ReadHot.sizes)     # same archive as read_hot

    def plan(self, archive: Any, seed: int, seconds: float) -> None:
        self.archive = archive
        self.seed = seed
        self.seconds = seconds
        self.users = [p.user_id for p in archive.profiles[:2]]
        visited = set(_visited_urls(archive))
        self.probes: list[tuple[str, set[str]]] = []
        for leaf in archive.root.leaves():
            relevant = {
                p.url for p in archive.corpus.by_topic(leaf.name)
                if p.url in visited
            }
            if len(relevant) >= 3 and len(self.probes) < self.n_probes:
                self.probes.append((" ".join(leaf.seed_terms[-2:]), relevant))
        self.pages: dict[int, dict[int, list]] = {}   # session -> offset -> rows
        self.session_meta: dict[int, dict[str, Any]] = {}
        self.unsorted = 0

    def spec_extra(self) -> dict[str, Any]:
        return {"users": [CONTROL_USER]}

    def _mode(self, session: int) -> tuple[str, str]:
        """(mode, scope) by session index: probes alternate ranked and
        hybrid; after them 60 % ranked/all, 20 % hybrid, 10 % mine,
        10 % community."""
        if session < len(self.probes):
            return ("hybrid" if session % 2 else "ranked", "all")
        slot = session % 10
        if slot < 6:
            return "ranked", "all"
        if slot < 8:
            return "hybrid", "all"
        return "ranked", ("mine" if slot == 8 else "community")

    def _sessions(self) -> Iterator[tuple[int, str]]:
        rng = random.Random(f"{self.seed}:search_cold")
        leaves = self.archive.root.leaves()
        seen = set()
        session = 0
        for query, _relevant in self.probes:
            seen.add(query)
            yield session, query
            session += 1
        while True:
            leaf = leaves[rng.randrange(len(leaves))]
            query = " ".join(rng.sample(leaf.seed_terms, rng.choice((2, 3))))
            if query in seen:
                continue
            seen.add(query)
            yield session, query
            session += 1

    def _client(self, index: int, sessions: Iterator[tuple[int, str]],
                lock: Any) -> Iterator[Request]:
        user = self.users[index]
        while True:
            with lock:
                session, query = next(sessions)
            mode, scope = self._mode(session)
            self.session_meta[session] = {
                "user": user, "query": query, "mode": mode, "scope": scope,
            }
            for offset in (0, 10, 20):
                yield Request("search", user, {
                    "servlet": "search", "query": query, "mode": mode,
                    "scope": scope, "limit": 10, "offset": offset,
                }, (session, offset))

    def ladder_sample(self, transport: Any, n: int) -> list[Request]:
        """The mix proper: the session stream after the recall probes."""
        client = self._client(0, self._sessions(), threading.Lock())
        for _ in range(3 * len(self.probes)):
            next(client)
        return [next(client) for _ in range(n)]

    def _check(self, req: Request, response: Any) -> bool:
        session, offset = req.tag
        rows = [(h["url"], h["score"]) for h in response["hits"]]
        self.pages.setdefault(session, {})[offset] = rows
        scores = [score for _url, score in rows]
        if any(a < b for a, b in zip(scores, scores[1:])):
            self.unsorted += 1
            return False
        return True

    def drive(self, child: Child, root: str | None) -> Outcome:
        transport = SocketTransport(*child.address)
        try:
            for user in self.users:   # open the connections outside the window
                transport.request(user, {"servlet": "folders_get"})
            sessions = self._sessions()
            lock = threading.Lock()
            clients = [self._client(i, sessions, lock) for i in range(2)]
            before = metrics_pull(child)
            with CpuWindow(child.pids) as cpu:
                load = closed_loop(
                    transport, clients, self._check, seconds=self.seconds,
                )
            after = metrics_pull(child)
        finally:
            transport.close()
        with SocketTransport(*child.address) as fresh:
            paging_ok, checked = self._verify_paging(fresh)
        return Outcome(
            load=load, rate_window=(load.started, load.ended), cpu=cpu,
            checks={
                "scores_non_increasing": self.unsorted == 0,
                "pages_concatenate_to_limit_30": paging_ok and checked > 0,
                "probes_completed": self._probes_done() == len(self.probes),
            },
            extras={"recall_at_10": self._recall()},
            metrics_before=before, metrics_after=after,
            notes={"sessions": len(self.pages), "paging_checked": checked},
        )

    def _complete(self) -> list[int]:
        return sorted(
            s for s, pages in self.pages.items() if len(pages) == 3
        )

    def _verify_paging(self, transport: SocketTransport) -> tuple[bool, int]:
        """Pages at offset 0/10/20 concatenate to the ``limit=30`` answer
        (every 8th complete session, outside the measured window)."""
        ok, checked = True, 0
        for session in self._complete()[::8]:
            meta = self.session_meta[session]
            whole = transport.request(meta["user"], {
                "servlet": "search", "query": meta["query"],
                "mode": meta["mode"], "scope": meta["scope"],
                "limit": 30, "offset": 0,
            })
            expect = [(h["url"], h["score"]) for h in whole.get("hits", [])]
            pages = self.pages[session]
            if pages[0] + pages[10] + pages[20] != expect:
                ok = False
            checked += 1
        return ok, checked

    def _probes_done(self) -> int:
        return sum(1 for s in range(len(self.probes)) if 0 in self.pages.get(s, {}))

    def _recall(self) -> float:
        recalls = []
        for session, (_query, relevant) in enumerate(self.probes):
            rows = self.pages.get(session, {}).get(0)
            if rows is None:
                continue
            found = len({url for url, _s in rows} & relevant)
            recalls.append(found / min(10, len(relevant)))
        return sum(recalls) / len(recalls) if recalls else 0.0


# --------------------------------------------------------------------- ingest


class Ingest:
    """Closed loop with applet think time, fixed work, durable writes: WAL
    fsync, catalog, term store and the mining fleet competing with
    foreground acks for one GIL.  Reads nothing until the archive is mined.

    The work is fixed by the seed: ``pages_per_second x seconds`` pages the
    history never visited, each surfed several times in 8-visit batches.
    Acks cost ~2 ms and mining ~30 ms per new page.  The 20 ms think time
    spreads the batches over the first third of the run, so acks compete
    with mining, yet mining stays the bottleneck throughout: no part of
    ``mined_s`` is client sleep, which the speed clock could not scale.
    """

    name = "ingest"
    topology = "single"
    sync = True
    on_disk = True
    #: New pages and batches per second of ``--seconds``: sized so that
    #: mining to quiescence takes about ``--seconds`` at reference speed.
    pages_per_second = 28.0
    batches_per_second = 30.0
    think_s = 0.02

    @staticmethod
    def sizes(smoke: bool) -> dict[str, Any]:
        if smoke:
            return {"num_users": 4, "days": 1, "pages_per_leaf": 4}
        return {"num_users": 4, "days": 1, "pages_per_leaf": 16}

    def plan(self, archive: Any, seed: int, seconds: float) -> None:
        self.archive = archive
        self.seed = seed
        self.seconds = seconds
        self.n_batches = max(8, int(self.batches_per_second * seconds))
        rng = random.Random(f"{seed}:ingest")
        known = set(_visited_urls(archive))
        fresh = sorted(set(archive.corpus.pages) - known)
        targets = set(rng.sample(
            fresh, min(len(fresh), max(8, int(self.pages_per_second * seconds)))))
        by_topic = {
            topic: [u for u in urls if u in targets]
            for topic, urls in _pages_by_topic(archive).items()
        }
        topics = sorted(t for t, urls in by_topic.items() if urls)
        self.users = [p.user_id for p in archive.profiles[:4]]
        base = _history_end(archive)
        self.batches: list[Request] = []
        for i in range(self.n_batches):
            # Client c alternates between users c and c+2: a connection
            # (and its lock) belongs to one user.
            user = self.users[(i % 2 + 2 * ((i // 2) % 2)) % len(self.users)]
            urls = by_topic[rng.choice(topics)]
            visits = [{
                "servlet": "visit",
                "url": urls[rng.randrange(len(urls))],
                "at": round(base + 60.0 + i * 300.0 + j * 30.0, 3),
                "session_id": 100_000 + i,
            } for j in range(VISITS_PER_BATCH)]
            self.batches.append(Request("visit_batch", user, visits, i))
        self.new_pages = sorted({v["url"] for b in self.batches for v in b.payload})
        self.probe_urls = random.Random(f"{seed}:ingest:probe").sample(
            self.new_pages, min(16, len(self.new_pages)))

    def spec_extra(self) -> dict[str, Any]:
        return {"users": [CONTROL_USER]}

    def ladder_sample(self, transport: Any, n: int) -> list[Request]:
        return self.batches[:n]

    def drive(self, child: Child, root: str | None) -> Outcome:
        transport = SocketTransport(*child.address)
        try:
            for user in self.users:
                transport.request(user, {"servlet": "folders_get"})
            stats_before = stats(child)
            before = metrics_pull(child)
            disk_before = dir_bytes(root) if root else 0
            clients = [iter(self.batches[c::2]) for c in range(2)]
            with CpuWindow(child.pids) as cpu:
                load = closed_loop(
                    transport, clients, _no_check, seconds=None,
                    think_s=self.think_s)
                acked = sum(s.acked for s in load.samples)
                mined_at, stats_after = wait_mined(
                    child,
                    covisit_target=covisit_items(stats_before) + acked,
                )
            after = metrics_pull(child)
            disk_after = dir_bytes(root) if root else 0
        finally:
            transport.close()
        with SocketTransport(*child.address) as fresh:
            found = self._probe_search(fresh)
        stored = int(stats_after["visits"]) - int(stats_before["visits"])
        return Outcome(
            # "How fast does surfing become searchable": a client's think
            # time fixes the ack rate, mining fixes this one.
            load=load, rate_window=(load.started, mined_at), cpu=cpu,
            checks={
                "stored_visits_equal_acked": stored == acked,
                "all_visits_acked": acked == self.n_batches * VISITS_PER_BATCH,
                "new_pages_searchable": found == len(self.probe_urls) > 0,
            },
            extras={
                "acked": acked, "mined": mined_at,
                "last_ack": max(s.start + s.latency for s in load.samples),
                "disk_bytes": disk_after - disk_before,
            },
            metrics_before=before, metrics_after=after,
            notes={
                "batches": self.n_batches, "acked_visits": acked,
                "new_pages": len(self.new_pages),
            },
        )

    def _probe_search(self, transport: SocketTransport) -> int:
        """A sample of pages first seen in this run is found by searching
        for its title (mined means searchable).  Boolean mode: only pages
        holding every title word match, so the answer is a handful of
        hits (a ranked search snippets hundreds, half a second each)."""
        found = 0
        for url in self.probe_urls:
            title = self.archive.corpus.pages[url].title
            response = transport.request(self.users[0], {
                "servlet": "search", "query": title.lower(),
                "mode": "boolean", "limit": 1000, "offset": 0,
            })
            if any(h["url"] == url for h in response.get("hits", [])):
                found += 1
        return found


# ---------------------------------------------------------------------- mixed


class Mixed:
    """Closed loop on the production topology: RC4-keyed users, router hop,
    scatter/gather, two forked shard workers committing to disk; writes
    beside reads.  The request stream is ``repro.loadgen``'s session mix
    (visit batches, searches, trail replays, recommendations for a
    Zipfian million-user population) taken in schedule order.

    Offered open-loop on its due times (20 req/s, then a 60 req/s surge)
    this workload does not repeat: 200 requests over four processes on
    two cores, with 2-5 s mining runs, put the pooled median anywhere
    between 9 and 53 ms from one run to the next (README, "what did not
    work").  Two clients sending a fixed number of requests back to back
    load the same path with the same work every run.
    """

    name = "mixed"
    topology = "cluster"
    sync = True
    on_disk = True
    shards = 2
    #: Fixed work: this many requests per second of ``--seconds``, about
    #: what two clients complete on one CPU at reference speed.
    requests_per_second = 50.0
    pooled_connections = 16  # < router_workers (24): one thread per connection

    @staticmethod
    def sizes(smoke: bool) -> dict[str, Any]:
        if smoke:
            return {"num_users": 3, "days": 2, "pages_per_leaf": 4}
        return {"num_users": 4, "days": 2, "pages_per_leaf": 12}

    def plan(self, archive: Any, seed: int, seconds: float) -> None:
        self.archive = archive
        self.seed = seed
        self.seconds = seconds
        n_requests = max(16, int(self.requests_per_second * seconds))
        # The community revisits what it has archived: the schedule draws
        # its visits from pages the history already holds.  Crawling and
        # indexing new pages is ``ingest``'s job; here 2-5 s indexer runs
        # on two shards would decide which requests stall (README).
        visited = _visited_urls(archive)
        known = SimpleNamespace(pages={
            url: page for url, page in archive.corpus.pages.items()
            if url in visited})
        schedule = build_schedule(
            known, seed=seed, duration=seconds,
            rate=2.0 * n_requests / seconds, population=10 ** 6,
            visits_per_batch=VISITS_PER_BATCH, diurnal_amplitude=0.0,
            sim_base_at=_history_end(archive) + 60.0,
        )
        self.digest = schedule.digest()
        # Deterministic rewrite of the searches.  The schedule asks one
        # fixed query per topic, and a hybrid search on two shards costs
        # 50-400 ms depending on how many pages match it, so ~110 searches
        # drawn by topic popularity make throughput swing 2x with the
        # seed.  Instead search j takes the j-th of the seed-shuffled
        # (topic query, slot) pairs: every topic equally often, and of
        # every four searches one hybrid (a scatter read), one scoped to
        # the user's own visits, two ranked/all.
        # (the schedule's own query shape: a topic's last two words)
        queries = sorted({
            " ".join(w.lower() for w in re.findall(r"[A-Za-z]+", page.topic)[-2:])
            for page in archive.corpus.pages.values()})
        combos = [(q, slot) for q in queries for slot in range(4)]
        random.Random(f"{seed}:mixed").shuffle(combos)
        # Same for the mix: each kind's share of the fixed work is its
        # expected share of a session (a recommend costs 20 visit batches,
        # so 15 or 29 of them in 400 requests is a different workload);
        # the first quota of each kind is kept, in schedule order.
        weights = {"visit_batch": 1.0, **DEFAULT_MIX}
        quota = {
            kind: round(n_requests * w / sum(weights.values()))
            for kind, w in weights.items()
        }
        self.requests: list[Request] = []
        searches = 0
        for r in schedule.requests:
            if quota[r.kind] <= 0:
                continue
            quota[r.kind] -= 1
            payload = r.payload
            if r.kind == "search":
                query, slot = combos[searches % len(combos)]
                payload = {**payload, "query": query}
                if slot == 1:
                    payload["mode"] = "hybrid"
                elif slot == 3:
                    payload["scope"] = "mine"
                searches += 1
            self.requests.append(Request(r.kind, r.user_id, payload))
        self.schedule_users = sorted({r.user for r in self.requests})
        self.keys = {
            user: hashlib.sha256(f"{seed}:{user}".encode()).hexdigest()[:32]
            for user in self.schedule_users + [p.user_id for p in archive.profiles]
        }

    def spec_extra(self) -> dict[str, Any]:
        return {
            "users": [CONTROL_USER, *self.schedule_users],
            "keys": self.keys,
            "shards": self.shards,
        }

    def ladder_sample(self, transport: Any, n: int) -> list[Request]:
        """Searches (the ladder's headline kind) alternating with the
        other kinds, each in the stream's own order."""
        searches = [r for r in self.requests if r.kind == "search"]
        others = [r for r in self.requests if r.kind != "search"]
        mixed = [r for pair in zip(searches, others) for r in pair]
        return mixed[:n]

    def _client(self, stream: Iterator[Request], lock: Any) -> Iterator[Request]:
        while True:
            with lock:
                req = next(stream, None)
            if req is None:
                return
            yield req

    def drive(self, child: Child, root: str | None) -> Outcome:
        transport = SocketTransport(
            *child.address, max_pooled=self.pooled_connections)
        for user, key in self.keys.items():
            transport.set_key(user, bytes.fromhex(key))
        try:
            stats_before = stats(child)
            before = metrics_pull(child)
            disk_before = dir_bytes(root) if root else 0
            stream, lock = iter(self.requests), threading.Lock()
            clients = [self._client(stream, lock) for _ in range(2)]
            with CpuWindow(child.pids) as cpu:
                load = closed_loop(transport, clients, _no_check, seconds=None)
                acked = sum(s.acked for s in load.samples)
                mined_at, stats_after = wait_mined(
                    child,
                    covisit_target=covisit_items(stats_before) + acked,
                )
            after = metrics_pull(child)
            disk_after = dir_bytes(root) if root else 0
        finally:
            transport.close()
        stored = sum(
            int(a["visits"]) for a in _shard_stats(stats_after)
        ) - sum(int(b["visits"]) for b in _shard_stats(stats_before))
        return Outcome(
            load=load, rate_window=(load.started, load.ended), cpu=cpu,
            checks={
                "stored_visits_cover_acked": stored >= acked > 0,
                "every_request_sent": len(load.samples) == len(self.requests),
            },
            extras={
                "acked": acked, "mined": mined_at, "last_ack": load.ended,
                "disk_bytes": disk_after - disk_before,
            },
            metrics_before=before, metrics_after=after,
            notes={
                "schedule_digest": self.digest,
                "schedule_users": len(self.schedule_users),
                "requests": len(self.requests), "acked_visits": acked,
            },
        )


WORKLOADS = {w.name: w for w in (ReadHot, SearchCold, Ingest, Mixed)}
