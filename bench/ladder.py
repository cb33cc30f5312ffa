"""The traced run: a layer ladder measured from outside the program.

The same archive the untraced run served is built **in process**, and a
seeded sample of the workload's own requests is replayed single-threaded
at successively deeper *public* entry points (the rungs):

    tcp         SocketTransport.request   over MemexServer.listen / a
                MemexSocketServer in front of the two-shard dispatcher
    tunnel      HttpTunnelTransport.request
    dispatcher  ShardDispatcher.dispatch
    registry    ServletRegistry.dispatch  (LocalBackend.request for mixed)
    callees     the handler's public callees, one call each:
                VersionedCache.get/put, SearchEngine.search,
                InvertedIndex.postings, make_snippet, DenseVectorIndex.query,
                related_scores, rrf_fuse, MemexRepository.user_visits /
                community_visits / record_visit_batch,
                WriteAheadLog.append_many, encode/decode_message, rc4_stream

and, for ``ingest``, each daemon's ``run_once()`` in scheduler order.

Every timed call is a span ``{id, name, start, end, parent, request_id}``
kept in memory and written to ``spans.jsonl`` at the end.  The rungs are
separate executions of the same request, so the nesting is by
construction: the span of rung *k* for request *i* is the parent of rung
*k+1*'s span for request *i*.  A layer's self time is its rung minus the
rung below (its span minus what its children cover), so the self times
sum to the top rung.  Nothing in ``src/`` is patched; every number comes
from timing calls into public functions.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import workloads
from harness import OUT_DIR, Request
from repro.core.api import MemexSystem, corpus_fetcher
from repro.core.memex import (
    COVISIT_SEEDS,
    FUSE_DEPTH,
    HYBRID_WEIGHTS,
    PRF_FEEDBACK,
    MemexServer,
)
from repro.retrieval.covisit import related_scores
from repro.retrieval.fusion import canonical_url, rrf_fuse
from repro.server.netserver import MemexSocketServer
from repro.server.protocol import decode_message, encode_message, rc4_stream
from repro.server.servlets import BATCH_SERVLET
from repro.server.transport import HttpTunnelTransport, SocketTransport
from repro.shard.gather import SCATTER_REWRITERS, LocalBackend, ShardDispatcher
from repro.storage.engine import Namespace, open_engine
from repro.storage.wal import WriteAheadLog
from repro.text.index import InvertedIndex
from repro.text.snippets import make_snippet
from repro.text.tokenize import tokenize
from repro.text.vectorize import text_vector, tfidf

RUNGS = ("tcp", "tunnel", "dispatcher", "registry")
#: Requests sampled per workload, and the wall budget for replaying them.
SAMPLE = {"read_hot": 400, "search_cold": 90, "ingest": 40, "mixed": 60}
LADDER_BUDGET_S = 8.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Spans:
    """In-memory span log; ids are indices, parents resolve by id."""

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []

    def call(
        self, name: str, parent: int | None, request_id: Any,
        fn: Callable[..., Any], *args: Any, **kwargs: Any,
    ) -> tuple[Any, int, float]:
        """Time one call; returns (result, span id, seconds)."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        return result, self.add(name, start, end, parent, request_id), end - start

    def add(self, name: str, start: float, end: float,
            parent: int | None, request_id: Any) -> int:
        self.rows.append({
            "id": len(self.rows), "name": name, "start": start, "end": end,
            "parent": parent, "request_id": request_id,
        })
        return len(self.rows) - 1

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.rows if r["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")


# ------------------------------------------------------------------------ rig


class RecordingBackend:
    """The public ``Backend`` protocol around a ``LocalBackend``: logs each
    shard call's interval and how many search hits it shipped."""

    def __init__(self, inner: LocalBackend, shard: int, log: list) -> None:
        self.inner, self.shard, self.log = inner, shard, log

    def request(self, user_id: str, payload: dict[str, Any]) -> dict[str, Any]:
        start = time.perf_counter()
        response = self.inner.request(user_id, payload)
        hits = len(response.get("hits") or ()) if isinstance(response, dict) else 0
        self.log.append((self.shard, start, time.perf_counter(), hits))
        return response


class _Fleet:
    """What ``MemexSystem.replay`` needs of a server, over several."""

    def __init__(self, servers: list[MemexServer], transport: HttpTunnelTransport):
        self.servers, self.transport = servers, transport

    def tick(self) -> int:
        return sum(s.tick() for s in self.servers)

    def process_background_work(self) -> int:
        return sum(s.process_background_work() for s in self.servers)


class Rig:
    """The in-process system under the ladder: one server, or two behind a
    recording ``ShardDispatcher`` for ``mixed``."""

    def __init__(self, workload: Any, archive: Any, root: Path) -> None:
        self.workload = workload
        fetch = corpus_fetcher(archive.corpus)
        self.backend_log: list[tuple[int, float, float, int]] = []
        keys = {
            user: bytes.fromhex(key)
            for user, key in workload.spec_extra().get("keys", {}).items()
        }
        def new_server(sub: str) -> MemexServer:
            if not workload.on_disk:
                return MemexServer(fetch, sync=workload.sync)
            path = root / sub
            path.mkdir(parents=True, exist_ok=True)
            return MemexServer(fetch, root=str(path), sync=workload.sync)

        if workload.topology == "cluster":
            self.servers = [new_server(f"shard-{i:02d}") for i in range(workload.shards)]
            self.dispatcher = ShardDispatcher([
                RecordingBackend(LocalBackend(s.registry), i, self.backend_log)
                for i, s in enumerate(self.servers)
            ])
            self.tunnel = HttpTunnelTransport(
                self.servers[0].registry, dispatcher=self.dispatcher)
            system = MemexSystem(_Fleet(self.servers, self.tunnel))
        else:
            self.servers = [new_server("single")]
            self.dispatcher = self.servers[0].dispatcher
            self.tunnel = self.servers[0].transport
            system = MemexSystem(self.servers[0])
        self.server = self.servers[0]
        for user, key in keys.items():
            self.tunnel.set_key(user, key)
        surfers = [p.user_id for p in archive.profiles]
        extra = [u for u in workload.spec_extra().get("users", []) if u not in surfers]
        for user in surfers + extra:
            system.register_user(user, community=archive.name)
        system.replay(archive.events)
        system.server.process_background_work()
        if workload.topology == "cluster":
            self.net = MemexSocketServer(
                self.dispatcher, workers=8, key_source=self.tunnel,
                authoritative_user=True,
            )
        else:
            self.net = self.server.listen(workers=8)
        self.socket = SocketTransport(*self.net.address, max_pooled=6)
        for user, key in keys.items():
            self.socket.set_key(user, key)
        self.keys = keys

    def clear_caches(self) -> None:
        for server in self.servers:
            if server.caches is not None:
                server.caches.clear()

    def close(self) -> None:
        self.socket.close()
        self.net.close(drain=False)
        self.dispatcher.close()
        for server in self.servers:
            server.close()


def _wire(req: Request) -> dict[str, Any]:
    """The decoded request as the dispatcher and registry see it."""
    if isinstance(req.payload, list):
        return {"servlet": BATCH_SERVLET, "user_id": req.user, "requests": req.payload}
    return {**req.payload, "user_id": req.user}


def _send(transport: Any, req: Request) -> Any:
    if isinstance(req.payload, list):
        return transport.request_batch(req.user, req.payload)
    return transport.request(req.user, req.payload)


# --------------------------------------------------------------------- ladder


class Ladder:
    """Replays a sample, one request at a time through every rung.

    The rungs of one request run back to back (caches cleared before each
    on the cold workloads), and its handler's callees right after, so a
    burst of machine noise shifts a request's whole column rather than
    one rung of the table.
    """

    def __init__(self, rig: Rig, name: str, spans: Spans) -> None:
        self.rig, self.spans = rig, spans
        self.cold = name != "read_hot"          # clear caches before each call
        self.disjoint = name == "ingest"        # writes: a fresh batch per rung
        self.rung_ms: dict[tuple[str, str], list[float]] = {}
        self.rung_by_id: dict[tuple[str, int], float] = {}
        self.callee_ms: dict[str, list[float]] = {}     # per search, summed
        self.callee_ids: list[int] = []                 # searches they cover
        self.gather_ms: dict[str, list[float]] = {"forward": [], "scatter": []}
        self.backend_ms: dict[str, list[float]] = {}
        self.shipped: list[float] = []
        self.rows_scanned: list[float] = []
        self.docs_per_hit: list[float] = []
        self.hit_dispatch_us: list[float] = []
        self.hit_get_us: list[float] = []
        self.ok = True

    def _calls(self) -> dict[str, Callable[[Request], Any]]:
        rig = self.rig
        calls: dict[str, Callable[[Request], Any]] = {
            "tcp": lambda r: _send(rig.socket, r),
            "tunnel": lambda r: _send(rig.tunnel, r),
            "dispatcher": lambda r: rig.dispatcher.dispatch(_wire(r)),
        }
        if len(rig.servers) == 1:
            calls["registry"] = lambda r: rig.server.registry.dispatch(_wire(r))
        return calls

    def climb(self, requests: list[Request], count: int, budget_s: float) -> None:
        calls = self._calls()
        stride = len(calls) if self.disjoint else 1
        deadline = time.perf_counter() + budget_s
        for i in range(count):
            if time.perf_counter() > deadline or (i + 1) * stride > len(requests):
                break
            parent: int | None = None
            for depth, (rung, call) in enumerate(calls.items()):
                req = requests[i * stride + (depth if self.disjoint else 0)]
                if self.cold:
                    self.rig.clear_caches()
                mark = len(self.rig.backend_log)
                response, parent, took = self.spans.call(rung, parent, i, call, req)
                self.rung_ms.setdefault((rung, req.kind), []).append(took * 1000.0)
                self.rung_by_id[(rung, i)] = took * 1000.0
                self._check(response)
                if rung == "dispatcher" and len(self.rig.servers) > 1:
                    self._gather(parent, i, req, response, mark)
            if req.kind == "search":
                self._search_callees(i, req, parent)

    def _check(self, response: Any) -> None:
        rows = response if isinstance(response, list) else [response]
        if any(not isinstance(r, dict) or r.get("status") != "ok" for r in rows):
            self.ok = False

    def _gather(self, sid: int, i: int, req: Request, response: Any, mark: int) -> None:
        """Attribute one dispatcher call between the shards it called and
        the dispatcher's own routing and merging."""
        calls = self.rig.backend_log[mark:]
        if not calls:
            return
        span = self.spans.rows[sid]
        for shard, start, end, _hits in calls:
            self.spans.add(f"backend.shard{shard}", start, end, sid, i)
        covered = max(c[2] for c in calls) - min(c[1] for c in calls)
        own = max(0.0, (span["end"] - span["start"]) - covered) * 1000.0
        self.backend_ms.setdefault(req.kind, []).append(covered * 1000.0)
        self.rung_by_id[("registry", i)] = covered * 1000.0
        self.gather_ms["scatter" if len(calls) > 1 else "forward"].append(own)
        if req.kind == "search" and len(calls) > 1 and response.get("hits"):
            self.shipped.append(sum(c[3] for c in calls) / len(response["hits"]))

    def _search_callees(self, i: int, req: Request, parent: int | None) -> None:
        """One timed call to each public callee of the search handler for
        this request, on cold caches; then its warm repeat (the hit path).
        On a cluster: on the owner shard, or — for a scattered hybrid
        search — on every shard, with the sub-request each is sent."""
        rig = self.rig
        p = dict(req.payload)
        servers = [rig.server]
        if len(rig.servers) > 1:
            if p.get("mode") == "hybrid":
                p = SCATTER_REWRITERS["search"](p)
                servers = rig.servers
            else:
                servers = [rig.servers[rig.dispatcher.shard_for(req.user)]]
        spent: dict[str, float] = {}
        for server in servers:
            self._callees_on(server, i, req.user, p, parent, spent)
        if spent:
            self.callee_ids.append(i)
            for layer, value in spent.items():
                self.callee_ms.setdefault(layer, []).append(value)

    def _callees_on(
        self, server: MemexServer, i: int, user: str, p: dict[str, Any],
        parent: int | None, spent: dict[str, float],
    ) -> None:
        rig, spans = self.rig, self.spans
        repo, cache = server.repo, server.caches.search
        query, mode = p["query"], p.get("mode", "ranked")
        scope, limit, offset = p.get("scope", "all"), p.get("limit", 10), p.get("offset", 0)
        key = (query, mode, scope, user if scope == "mine" else "", limit, offset)
        stamps = repo.stamps
        extra: tuple = (
            (stamps.pages, stamps.visits) if scope in ("mine", "community")
            else (stamps.pages,))
        if mode == "hybrid":
            extra = (*extra, stamps.covisits, repo.versions.watermark(server.dense.name))
        wire = {**p, "user_id": user}
        if not self.cold:
            # All hits: only the hit path exists to be measured.
            self._hit_path(server, i, wire, key, extra)
            return

        def timed(layer: str, name: str, fn: Callable[..., Any], *a: Any, **k: Any) -> Any:
            result, _sid, took = spans.call(name, parent, i, fn, *a, **k)
            spent[layer] = spent.get(layer, 0.0) + took * 1000.0
            return result

        rig.clear_caches()
        timed("cache", "cache.get.miss", cache.get, key, extra=extra)
        token = cache.token()
        candidates = None
        if scope == "mine":
            rows = timed("storage.repository", "storage.repository.user_visits",
                         repo.user_visits, user)
            candidates = {v["url"] for v in rows}
            self.rows_scanned.append(len(rows))
        elif scope == "community":
            rows = timed("storage.repository", "storage.repository.community_visits",
                         repo.community_visits)
            candidates = {v["url"] for v in rows}
            self.rows_scanned.append(len(repo.db.table("visits")))
        hits = timed("text.search", "text.search.rank", server.search_engine.search,
                     query, k=None, candidates=candidates)
        spans.call("text.search.rank_top10", None, i, server.search_engine.search,
                   query, k=10, candidates=candidates)
        scored = 0
        for term in tokenize(query):
            # Already inside the rank call above: reported, not added.
            postings, _sid, _took = spans.call(
                "text.index.postings", parent, i, server.index.postings, term)
            scored += len(postings)
        lexical = [h.doc_id for h in hits]
        page = [(h.doc_id, h.score) for h in hits[offset:offset + limit]]
        if mode == "hybrid":
            def dense_leg() -> list[str]:
                vocab = server.vectorizer.vocab
                qdense = server.dense_index.projector.project(
                    tfidf(vocab, text_vector(vocab, query)))
                feedback = [v for v in (server.dense_index.vector(u)
                                        for u in lexical[:COVISIT_SEEDS]) if v is not None]
                if feedback:
                    centroid = [sum(col) / len(feedback) for col in zip(*feedback)]
                    qdense = [a + PRF_FEEDBACK * b for a, b in zip(qdense, centroid)]
                return [u for u, _s in server.dense_index.query(
                    qdense, k=FUSE_DEPTH, candidates=candidates)]

            def covisit_leg() -> list[str]:
                scores: dict[str, float] = {}
                for seed_url in lexical[:COVISIT_SEEDS]:
                    for other, score in related_scores(
                            repo, seed_url, now=server.now,
                            decay=server.covisit.decay, k=FUSE_DEPTH):
                        if candidates is None or other in candidates:
                            scores[other] = scores.get(other, 0.0) + score
                return [u for u, _s in sorted(
                    scores.items(), key=lambda kv: (-kv[1], kv[0]))[:FUSE_DEPTH]]

            dense = timed("retrieval", "retrieval.dense.query", dense_leg)
            covisit = timed("retrieval", "retrieval.covisit.related_scores", covisit_leg)
            fused = timed(
                "retrieval", "retrieval.fusion.rrf", rrf_fuse,
                [(HYBRID_WEIGHTS["lexical"], lexical), (HYBRID_WEIGHTS["dense"], dense),
                 (HYBRID_WEIGHTS["covisit"], covisit)], key=canonical_url)
            page = fused[offset:offset + limit]
        for url, _score in page:
            def snippet(url: str = url) -> str | None:
                text = repo.page_text(url)
                return None if text is None else make_snippet(text, query).marked()
            timed("text.snippets", "text.snippets.make_snippet", snippet)
        if page:
            self.docs_per_hit.append(scored / len(page))
        # The real handler's answer goes through the registry, which also
        # caches it; the repeat below is then the cache-hit path.
        response = server.registry.dispatch(wire)
        timed("cache", "cache.put", cache.put, ("bench", key), response,
              token=token, extra=extra)
        cache.invalidate(("bench", key))
        self._hit_path(server, i, wire, key, extra)

    def _hit_path(
        self, server: MemexServer, i: int, wire: dict[str, Any], key: tuple, extra: tuple,
    ) -> None:
        _r, _sid, took = self.spans.call(
            "registry.hit", None, i, server.registry.dispatch, wire)
        got, _sid, got_took = self.spans.call(
            "cache.get.hit", None, i, server.caches.search.get, key, extra=extra)
        if got is not None:
            self.hit_dispatch_us.append(took * 1e6)
            self.hit_get_us.append(got_took * 1e6)

    def search_metrics(self) -> dict[str, float]:
        spans = self.spans
        ms = lambda name: _median(spans.durations(name)) * 1000.0   # noqa: E731
        candidates = spans.durations("storage.repository.user_visits") + \
            spans.durations("storage.repository.community_visits")
        return {
            "cache.get_us": _median(self.hit_get_us),
            "cache.put_us": _median(spans.durations("cache.put")) * 1e6,
            "server.servlets.dispatch_overhead_us": max(
                0.0, _median(self.hit_dispatch_us) - _median(self.hit_get_us)),
            "core.memex.search.candidates_ms": _median(candidates) * 1000.0,
            "storage.relational.rows_scanned_per_select": _median(self.rows_scanned),
            "text.search.rank_ms": ms("text.search.rank"),
            "text.search.rank_top10_ms": ms("text.search.rank_top10"),
            "text.search.docs_scored_per_hit": _median(self.docs_per_hit),
            "text.index.postings_ms": ms("text.index.postings"),
            "text.snippets.ms_per_page": ms("text.snippets.make_snippet"),
            "retrieval.dense.query_ms": ms("retrieval.dense.query"),
            "retrieval.fusion.rrf_ms": ms("retrieval.fusion.rrf"),
        }

    def callee_means(self) -> dict[str, float]:
        """Mean time per covered search in each callee layer (a callee
        only some searches call counts for its share)."""
        n = len(self.callee_ids) or 1
        return {layer: sum(v) / n for layer, v in self.callee_ms.items()}

    def rung_means(self, kind: str) -> dict[str, float]:
        """Mean of every rung over the sampled requests of *kind* — over
        the searches the callees cover, when there are any."""
        if kind == "search" and self.callee_ids:
            return {
                rung: statistics.fmean(
                    self.rung_by_id[(rung, i)] for i in self.callee_ids
                    if (rung, i) in self.rung_by_id)
                for rung in RUNGS
            }
        return {rung: self.mean(rung, kind) for rung in RUNGS}

    def p50(self, rung: str, kind: str) -> float:
        return _median(self.rung_ms.get((rung, kind), []))

    def mean(self, rung: str, kind: str) -> float:
        values = self.rung_ms.get((rung, kind), [])
        return statistics.fmean(values) if values else 0.0


# -------------------------------------------------------------------- callees


def write_callees(rig: Rig, spans: Spans, requests: list[Request], root: Path) -> dict[str, float]:
    """The storage calls under one 8-visit batch, each on its own: the
    repository group commit on the live repository, and a WAL append of
    the bytes it logged on a scratch log with the same flush policy."""
    server = rig.server
    sub = "single" if len(rig.servers) == 1 else "shard-00"
    wal_path = (root / sub / "catalog.wal") if rig.workload.on_disk else None
    bytes_per_batch: list[int] = []
    for i, req in enumerate(r for r in requests if r.kind == "visit_batch"):
        items = [{
            "user_id": req.user, "url": v["url"], "at": v["at"],
            "session_id": v["session_id"], "referrer": None,
            "archive_mode": "community", "origin": None,
        } for v in req.payload]
        before = wal_path.stat().st_size if wal_path and wal_path.exists() else 0
        spans.call("storage.repository.record_visit_batch", None, i,
                   server.repo.record_visit_batch, items)
        if wal_path and wal_path.exists():
            bytes_per_batch.append(wal_path.stat().st_size - before)
    out = {
        "storage.repository.record_visit_batch_ms":
            _median(spans.durations("storage.repository.record_visit_batch")) * 1000.0,
        "storage.wal.append_many_ms": 0.0,
        "storage.wal.bytes_per_visit": 0.0,
    }
    if bytes_per_batch:
        size = int(_median(bytes_per_batch))
        out["storage.wal.bytes_per_visit"] = size / workloads.VISITS_PER_BATCH
        with WriteAheadLog(root / "scratch.wal", sync=rig.workload.sync) as wal:
            for i in range(40):
                spans.call("storage.wal.append_many", None, i,
                           wal.append_many, [b"x" * size])
        out["storage.wal.append_many_ms"] = _median(
            spans.durations("storage.wal.append_many")) * 1000.0
    return out


def engine_rungs(rig: Rig, spans: Spans, archive: Any, root: Path) -> dict[str, float]:
    """Term-store and index micro-rungs: point reads of posting lists on
    the live engine, a 64-item ``put_many`` on a scratch engine with the
    workload's flush policy, and ``add_document`` on a scratch index."""
    server = rig.server
    postings = Namespace(server.repo.kv, "idx.post")
    for i, term in enumerate(list(server.index.terms())[:200]):
        spans.call("storage.engine.get", None, i, postings.get, term.encode("utf-8"))
    root.mkdir(parents=True, exist_ok=True)
    path = root / "scratch-engine" if rig.workload.on_disk else None
    engine = open_engine("btree", path, sync=rig.workload.sync) if path else open_engine("btree")
    try:
        for i in range(20):
            items = [(f"k{i:03d}.{j:03d}".encode(), b"v" * 120) for j in range(64)]
            spans.call("storage.engine.put_many", None, i, engine.put_many, items)
    finally:
        engine.close()
    scratch = InvertedIndex()
    for i, page in enumerate(list(archive.corpus.pages.values())[:40]):
        spans.call("text.index.add_document", None, i, scratch.add_document,
                   page.url, f"{page.title} {page.text}")
    return {
        "storage.engine.get_us": _median(spans.durations("storage.engine.get")) * 1e6,
        "storage.engine.put_many_ms": _median(spans.durations("storage.engine.put_many")) * 1000.0,
        "text.index.add_document_ms": _median(spans.durations("text.index.add_document")) * 1000.0,
    }


def daemon_rungs(rig: Rig, spans: Spans, budget_s: float) -> dict[str, dict[str, float]]:
    """Each daemon's ``run_once()`` in scheduler order (what
    ``server.tick()`` would run, one call at a time) until a full round
    does nothing or *budget_s* is spent."""
    server = rig.server
    order = [server.crawler, server.indexer, server.dense, server.covisit,
             server.classifier, server.themes, server.discovery]
    totals = {d.name: {"s": 0.0, "items": 0, "runs": 0} for d in order}
    deadline = time.perf_counter() + budget_s
    for round_no in range(200):
        if time.perf_counter() > deadline:
            break
        worked = 0
        for daemon in order:
            done, _, took = spans.call(f"daemon.{daemon.name}", None, round_no, daemon.run_once)
            row = totals[daemon.name]
            row["s"] += took
            row["items"] += done
            row["runs"] += 1 if done else 0
            worked += done
        if not worked:
            break
    server.caches.sync()
    return totals


def protocol_rungs(rig: Rig, spans: Spans, requests: list[Request]) -> dict[str, float]:
    """Codec and cipher on the frames this sample really sends."""
    req_bytes: list[int] = []
    resp_bytes: list[int] = []
    enc_us_kb: list[float] = []
    dec_us_kb: list[float] = []
    rc4_us_kb: list[float] = []
    rig.clear_caches()
    for i, req in enumerate(requests[:80]):
        wire = _wire(req)
        response = rig.dispatcher.dispatch(wire)
        key = rig.keys.get(req.user)
        for payload, sizes in ((wire, req_bytes), (response, resp_bytes)):
            frame, _, took = spans.call("server.protocol.encode", None, i, encode_message, payload)
            kb = len(frame) / 1024.0
            sizes.append(len(frame))
            enc_us_kb.append(took * 1e6 / kb)
            _, _, took = spans.call("server.protocol.decode", None, i, decode_message, frame)
            dec_us_kb.append(took * 1e6 / kb)
            if key is not None:
                _, _, took = spans.call("server.protocol.rc4", None, i, rc4_stream, key, frame[5:])
                rc4_us_kb.append(took * 1e6 / kb)
    return {
        "server.protocol.encode_us_per_kb": _median(enc_us_kb),
        "server.protocol.decode_us_per_kb": _median(dec_us_kb),
        "server.protocol.rc4_us_per_kb": _median(rc4_us_kb),
        "server.protocol.bytes_per_request": statistics.fmean(req_bytes) if req_bytes else 0.0,
        "server.protocol.bytes_per_response": statistics.fmean(resp_bytes) if resp_bytes else 0.0,
    }


def recovery_seconds(workload: Any, archive: Any, recovery_dir: str | None) -> float:
    """Reopen a copy of the untraced run's data directory (WAL replay in
    the storage layer) and restore the mined state."""
    if not recovery_dir:
        return 0.0
    path = Path(recovery_dir)
    if workload.topology == "cluster":
        path = path / "shard-00"
    if not path.is_dir():
        return 0.0
    start = time.perf_counter()
    server = MemexServer(corpus_fetcher(archive.corpus), root=str(path), sync=workload.sync)
    try:
        server.restore_state()
        return time.perf_counter() - start
    finally:
        server.close()


# ----------------------------------------------------------------------- main


def _budget(ladder: Ladder, kind: str, callees: dict[str, float], single: bool) -> dict[str, Any]:
    """Self time per layer for one request kind: each rung minus the rung
    below it, the bottom split among the callees that were timed.  Means,
    not medians: means add up, so the self times sum to the top rung."""
    rung = ladder.rung_means(kind)
    if not single and not ladder.callee_ids:
        shards = ladder.backend_ms.get(kind, [])
        rung["registry"] = statistics.fmean(shards) if shards else 0.0
    layers = {
        "server.netserver": rung["tcp"] - rung["tunnel"],
        "server.protocol": rung["tunnel"] - rung["dispatcher"],
        "shard.gather": rung["dispatcher"] - rung["registry"],
        **callees,
        "core.memex": rung["registry"] - sum(callees.values()),
    }
    clamped = {k: max(0.0, v) for k, v in layers.items()}
    top = rung["tcp"]
    return {
        "kind": kind,
        "top_rung_ms": top,
        "rungs_ms": rung,
        "self_ms": clamped,
        "coverage": sum(clamped.values()) / top if top else 0.0,
        "samples": len(ladder.callee_ids) or len(ladder.rung_ms.get(("tcp", kind), [])),
    }


def run(
    workload: Any, archive: Any, seed: int, *,
    smoke: bool, recovery_dir: str | None, spans_path: Path,
) -> dict[str, Any]:
    """Build the rig, climb the ladder, write ``spans.jsonl``; returns
    per-layer metrics, the budget table and the ladder's own checks."""
    name = workload.name
    root = OUT_DIR / "data" / f"{os.getpid()}-ladder"
    spans = Spans()
    fresh = workloads.WORKLOADS[name]()
    fresh.plan(archive, seed, workload.seconds)
    count = max(6, SAMPLE[name] // (5 if smoke else 1))
    budget_s = LADDER_BUDGET_S / (4 if smoke else 1)
    headline = "visit_batch" if name == "ingest" else "search"
    rig = Rig(fresh, archive, root)
    try:
        single = len(rig.servers) == 1
        requests = fresh.ladder_sample(rig.tunnel, count * (len(RUNGS) + 1))
        ladder = Ladder(rig, name, spans)
        ladder.climb(requests, count, budget_s)
        metrics = ladder.search_metrics()
        spare = requests[count * len(RUNGS):] if ladder.disjoint else requests[:count]
        stored = write_callees(rig, spans, spare, root)
        metrics.update(stored)
        metrics.update(engine_rungs(rig, spans, archive, root))
        metrics.update(protocol_rungs(rig, spans, requests[:count]))
        daemons = daemon_rungs(rig, spans, budget_s / 2) if name == "ingest" else {}
    finally:
        rig.close()
        shutil.rmtree(root, ignore_errors=True)

    if name == "read_hot":
        # Every request is a hit: the registry rung *is* the hit path, so
        # dispatch overhead is that rung minus the cache get.
        get_ms = metrics["cache.get_us"] / 1000.0
        callees = {
            "cache": get_ms,
            "server.servlets": max(0.0, ladder.mean("registry", "search") - get_ms),
        }
        metrics["server.servlets.dispatch_overhead_us"] = max(
            0.0, ladder.p50("registry", "search") * 1000.0 - metrics["cache.get_us"])
    elif headline == "search":
        callees = ladder.callee_means()
        callees["server.servlets"] = metrics["server.servlets.dispatch_overhead_us"] / 1000.0
    else:
        callees = {"storage.repository": stored["storage.repository.record_visit_batch_ms"]}
    budget = _budget(ladder, headline, callees, single)

    overhead = metrics["server.servlets.dispatch_overhead_us"] / 1000.0
    for kind in ("search", "trail", "recommend"):
        inner = ladder.p50("registry", kind) if single else _median(ladder.backend_ms.get(kind, []))
        metrics[f"core.memex.{kind}.handler_ms"] = max(0.0, inner - overhead)
    metrics["server.netserver.wire_us"] = max(
        0.0, ladder.mean("tcp", headline) - ladder.mean("tunnel", headline)) * 1000.0
    if single:
        metrics["shard.gather.dispatch_overhead_us"] = max(
            0.0, ladder.mean("dispatcher", headline) - ladder.mean("registry", headline)) * 1000.0
        metrics["shard.gather.scatter_merge_ms"] = 0.0
        metrics["shard.gather.hits_shipped_per_search"] = 0.0
    else:
        metrics["shard.gather.dispatch_overhead_us"] = _median(ladder.gather_ms["forward"]) * 1000.0
        metrics["shard.gather.scatter_merge_ms"] = _median(ladder.gather_ms["scatter"])
        metrics["shard.gather.hits_shipped_per_search"] = _median(ladder.shipped)
    metrics["storage.recovery_s"] = recovery_seconds(workload, archive, recovery_dir)
    metrics["bench.ladder_coverage"] = budget["coverage"]
    for daemon, row in daemons.items():
        budget.setdefault("daemons", {})[daemon] = {
            "seconds": row["s"], "items": row["items"],
            "ms_per_item": row["s"] * 1000.0 / row["items"] if row["items"] else 0.0,
        }
    spans.write(spans_path)
    return {
        "metrics": metrics,
        "headline_kind": headline,
        "tcp_p50_ms": ladder.p50("tcp", headline),
        "budget": budget,
        # Whether the self times sum to the top rung is the ladder's own
        # bookkeeping (reported as bench.ladder_coverage), not a property
        # of the program's answers, so it is not a correctness check.
        "checks": {"ladder_responses_ok": ladder.ok},
    }
