"""M-retrieval — hybrid search quality and latency vs. the lexical baseline.

Three gates, per the hybrid-retrieval acceptance criteria:

1. **Lexical is untouched.**  A server built with ``retrieval=False``
   (the pre-subsystem baseline: no dense index, no co-visitation miner,
   no fusion) and the default retrieval-enabled server must return
   byte-identical ``mode="ranked"`` responses for every benchmark query
   — fusion off ⇒ no ranking change.
2. **Hybrid quality uplift.**  On E6-style topical queries (leaf
   ``seed_terms`` scored against the simulator's topic ground truth),
   reciprocal-rank fusion of the lexical, dense, and co-visitation legs
   must show a measurable recall@10 uplift over pure lexical ranking,
   without giving up precision@10.
3. **Fusion budget.**  Hybrid ``search`` p99 may exceed the lexical p99
   on the same warmed system by at most ``FUSION_BUDGET_MS`` (read
   caches disabled, so the fusion work itself is what is being timed).
   An absolute budget, not a ratio: both modes share the ranking and
   snippet work, so a ratio loosens whenever that shared work gets
   slower and tightens whenever it gets faster, while the cost of the
   dense and co-visit legs and the fusion has not moved.

Numbers land in ``BENCH_retrieval.json`` at the repo root.  Set
``MEMEX_BENCH_QUICK=1`` (the CI smoke mode) for a smaller workload with
the same gates.
"""

import json
import os
import time
from pathlib import Path

from repro.core import MemexSystem
from repro.webgen import build_workload

QUICK = bool(os.environ.get("MEMEX_BENCH_QUICK"))
NUM_USERS = 4 if QUICK else 8
DAYS = 10 if QUICK else 20
PAGES_PER_LEAF = 8 if QUICK else 12
K = 10
LATENCY_ROUNDS = 3 if QUICK else 6
FUSION_BUDGET_MS = 7.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_retrieval.json"


def _build_pair():
    """One workload, two servers over it: the retrieval-enabled default
    and the ``retrieval=False`` pre-subsystem baseline, replayed
    identically."""
    workload = build_workload(
        seed=1711,
        num_users=NUM_USERS,
        days=DAYS,
        pages_per_leaf=PAGES_PER_LEAF,
        bookmark_prob=0.25,
    )
    hybrid = MemexSystem.from_workload(workload)
    hybrid.replay(workload.events)
    baseline = MemexSystem.from_workload(workload, retrieval=False)
    baseline.replay(workload.events)
    return workload, hybrid, baseline


def _topical_queries(workload, archived):
    """(query, relevant-archived-url-set) pairs, one per leaf topic with
    enough archived pages to score against.  The query takes the leaf's
    two *tail* seed terms — the E6 shape of a surfer recalling a couple
    of the rarer words of a topic.  Plenty of on-topic pages never
    mention those exact words, which is precisely the headroom the dense
    and trail legs exist to recover (the head terms appear in nearly
    every topic page and leave lexical search nothing to improve on)."""
    out = []
    for leaf in workload.root.leaves():
        relevant = {
            page.url
            for page in workload.corpus.by_topic(leaf.name)
            if page.url in archived
        }
        if len(relevant) < 3:
            continue
        out.append((" ".join(leaf.seed_terms[-2:]), relevant))
    return out


def _search(system, user, query, mode, limit=K):
    response = system.server.transport.request(user, {
        "servlet": "search", "query": query, "mode": mode,
        "limit": limit, "scope": "community",
    })
    assert response["status"] == "ok", response
    return response


def _quality(system, user, queries, mode):
    """Mean precision@K / recall@K over the topical query set.

    Precision divides by K, not by the number of rows returned: a mode
    that answers a 10-slot request with four relevant rows and six empty
    slots did not achieve precision 1.0, it left six answers on the
    table."""
    precisions, recalls = [], []
    for query, relevant in queries:
        urls = [h["url"] for h in _search(system, user, query, mode)["hits"]]
        inter = len(set(urls) & relevant)
        precisions.append(inter / K)
        recalls.append(inter / min(K, len(relevant)))
    n = len(queries)
    return sum(precisions) / n, sum(recalls) / n


def _latencies(system, user, queries, mode, rounds):
    """Per-request wall times with read caches disabled: every request
    pays for its ranking (and, in hybrid mode, its fusion) in full."""
    server = system.server
    caches = server.caches
    times = []
    try:
        server.caches = None
        for query, _ in queries:          # warm-up pass (vectorizer etc.)
            _search(system, user, query, mode)
        for _ in range(rounds):
            for query, _ in queries:
                start = time.perf_counter()
                _search(system, user, query, mode)
                times.append(time.perf_counter() - start)
    finally:
        server.caches = caches
    return times


def _p99(times):
    ordered = sorted(times)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]


def test_bench_hybrid_retrieval(tmp_path):
    workload, hybrid, baseline = _build_pair()
    user = workload.profiles[0].user_id
    archived = {
        row["url"] for row in hybrid.server.repo.db.table("pages").scan()
    }
    queries = _topical_queries(workload, archived)
    assert len(queries) >= 4, "workload too small to score retrieval"

    # Gate 1 — lexical (``ranked``) mode is byte-identical with and
    # without the retrieval subsystem.
    identical = all(
        json.dumps(_search(hybrid, user, q, "ranked"), sort_keys=True)
        == json.dumps(_search(baseline, user, q, "ranked"), sort_keys=True)
        for q, _ in queries
    )

    # Gate 2 — fusion quality uplift against topic ground truth.
    lex_precision, lex_recall = _quality(hybrid, user, queries, "ranked")
    hyb_precision, hyb_recall = _quality(hybrid, user, queries, "hybrid")

    # Gate 3 — latency budget.
    lex_times = _latencies(hybrid, user, queries, "ranked", LATENCY_ROUNDS)
    hyb_times = _latencies(hybrid, user, queries, "hybrid", LATENCY_ROUNDS)
    lex_p99, hyb_p99 = _p99(lex_times), _p99(hyb_times)

    payload = {
        "benchmark": "hybrid_retrieval",
        "quick": QUICK,
        "workload": {
            "users": NUM_USERS,
            "days": DAYS,
            "pages_per_leaf": PAGES_PER_LEAF,
            "archived_pages": len(archived),
            "queries": len(queries),
            "k": K,
        },
        "lexical_byte_identical": identical,
        "quality": {
            "lexical": {
                "precision_at_10": round(lex_precision, 4),
                "recall_at_10": round(lex_recall, 4),
            },
            "hybrid": {
                "precision_at_10": round(hyb_precision, 4),
                "recall_at_10": round(hyb_recall, 4),
            },
            "recall_uplift": round(hyb_recall - lex_recall, 4),
            "precision_uplift": round(hyb_precision - lex_precision, 4),
        },
        "latency": {
            "requests_per_mode": len(lex_times),
            "lexical_p99_ms": round(lex_p99 * 1e3, 3),
            "hybrid_p99_ms": round(hyb_p99 * 1e3, 3),
            "fusion_p99_ms": round((hyb_p99 - lex_p99) * 1e3, 3),
            "fusion_budget_ms": FUSION_BUDGET_MS,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nhybrid retrieval: recall@10 {lex_recall:.3f} -> {hyb_recall:.3f}"
        f" precision@10 {lex_precision:.3f} -> {hyb_precision:.3f}"
        f" p99 {lex_p99 * 1e3:.1f}ms -> {hyb_p99 * 1e3:.1f}ms"
        f" identical={identical}"
    )
    assert identical, "retrieval subsystem perturbed lexical-mode results"
    assert hyb_recall > lex_recall, payload["quality"]
    assert hyb_precision >= lex_precision, payload["quality"]
    assert (hyb_p99 - lex_p99) * 1e3 <= FUSION_BUDGET_MS, payload["latency"]

    hybrid.close()
    baseline.close()
