"""The bytes ``search`` and ``related_pages`` serve, pinned.

A small seeded archive is replayed in process and quiesced, and every
``search`` mode × scope × page of a dozen queries built from the
topics' seed terms, plus ``related_pages`` for a few URLs, is asked over
the in-process transport.  The sha256 of the canonical JSON of every
answer, in order, must equal :data:`GOLDEN` under two
``PYTHONHASHSEED``\\ s: a change to ranking, candidate sets, titles,
snippets, fusion or co-visit reads that moves one served byte fails
here, and so does one that lets a salted hash or a set's order reach a
response.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: sha256 of the probe's transcript (see ``PROBE``).
GOLDEN = "6949adac9b4ee7ae69696da9683823a8582210445b6696a7e5e0a0aa9da13e9d"

PROBE = r"""
import hashlib
import json
import random

from repro.core import MemexSystem
from repro.webgen import build_workload

workload = build_workload(seed=23, num_users=4, days=5, pages_per_leaf=6)
system = MemexSystem.from_workload(workload)
system.replay(workload.events)
server = system.server
server.process_background_work()

rng = random.Random(23)
leaves = workload.root.leaves()
users = [profile.user_id for profile in workload.profiles]
queries = []
for n in range(12):
    # One topic's words (boolean AND finds pages), or two topics' (a
    # ranking three pages deep).
    terms = [t for leaf in rng.sample(leaves, 1 + n % 2) for t in leaf.seed_terms[:4]]
    queries.append(" ".join(rng.sample(terms, rng.choice((2, 3)))))
answers = []
for n, query in enumerate(queries):
    user = users[n % len(users)]
    for mode in ("ranked", "boolean", "hybrid"):
        for scope in ("all", "mine", "community"):
            for offset in (0, 10, 20):
                answers.append(server.transport.request(user, {
                    "servlet": "search", "query": query, "mode": mode,
                    "scope": scope, "offset": offset,
                }))
pages = sorted(row["url"] for row in server.repo.db.table("pages").scan()
               if row["fetched"])
for url in rng.sample(pages, 6):
    answers.append(server.transport.request(
        users[0], {"servlet": "related_pages", "url": url, "k": 10}))
hits = sum(len(a.get("hits", a.get("related", ()))) for a in answers)
canonical = json.dumps(answers, sort_keys=True, separators=(",", ":"))
print(len(answers), hits, hashlib.sha256(canonical.encode()).hexdigest())
"""


def _transcript(hashseed: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hashseed},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_search_bytes_equal_the_golden_digest_under_two_hash_seeds():
    with ThreadPoolExecutor(max_workers=2) as pool:
        first, second = pool.map(_transcript, ("0", "4242"))
    count, hits, digest = first.split()
    assert int(count) == 12 * 27 + 6
    assert int(hits) > 500
    assert (first, second) == (f"{count} {hits} {GOLDEN}",) * 2
