"""The co-visitation associative index mined from surf sessions.

"Pages visited in the same session" is the trail-native relevance
signal the paper's whole premise rests on: a surfer who reaches page B
two clicks after page A has asserted a relationship no text similarity
can see.  The miner folds every community-archived session into a
symmetric pair matrix (the relational ``covisits`` table):

* **symmetric counts** — each unordered pair of distinct URLs seen in
  one ``(user, session)`` adds one co-occurrence;
* **exponential decay** — an existing pair's count ages by
  ``exp(-λ·Δt)`` before reinforcement, with λ from a two-week
  half-life, so stale associations fade instead of accreting forever;
* **self-pair exclusion** — revisiting a page inside a session never
  pairs it with itself;
* **compaction** — pairs whose decayed count falls under a floor are
  deleted in bulk every few mining rounds, bounding table growth;
* **a stored cursor** — each round commits the last visit id it folded
  in, and its round count, in the transaction that stores its counts
  (the ``cursors`` table), so a restarted miner resumes exactly where
  the stored matrix stops and re-walks the visits up to there to
  rebuild its open-session tails.

The miner is a plain scheduler daemon (``run_once``), not a versioning
consumer: visits are UI writes tracked by ``ChangeStamps``, and the
mined matrix bumps ``stamps.covisits`` so the related-pages cache
invalidates exactly when new evidence lands.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from ..storage.schema import ARCHIVE_COMMUNITY

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.repository import MemexRepository

#: Count half-life: two weeks of simulated time.
HALF_LIFE_S = 14 * 86400.0
#: Decayed pairs below this count are dropped at compaction.
COMPACT_FLOOR = 0.05
#: Compact every N mining rounds that did work.
COMPACT_EVERY = 16
#: Most recent distinct URLs per session a new visit pairs against.
SESSION_TAIL = 32
#: Concurrently tracked sessions (LRU-bounded; sessions are bursty).
MAX_OPEN_SESSIONS = 2048


def half_life_to_decay(half_life_s: float) -> float:
    """λ such that a count halves every *half_life_s* seconds."""
    return math.log(2.0) / half_life_s if half_life_s > 0 else 0.0


def related_scores(
    repo: "MemexRepository",
    url: str,
    *,
    now: float,
    decay: float,
    k: int | None = None,
) -> list[tuple[str, float]]:
    """Co-visited neighbors of *url*, scored by decayed count, best first.

    Decay is applied at read time too, so a pair reinforced long ago
    ranks below a fresher one even between compactions.
    """
    scored = [
        (other, count * math.exp(-decay * max(now - last_at, 0.0)))
        for other, count, last_at in repo.covisits_for(url)
    ]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k] if k is not None else scored


def covisit_evidence(
    repo: "MemexRepository",
    urls: list[str],
    *,
    now: float,
    decay: float,
    k: int = 20,
) -> dict[str, list[tuple[str, float]]]:
    """Per-URL neighbor lists for the classifier's co-visitation channel."""
    return {
        url: related_scores(repo, url, now=now, decay=decay, k=k)
        for url in urls
    }


class CoVisitMinerDaemon:
    """Scheduler daemon: fold new visits into the co-visitation matrix."""

    name = "covisit"

    #: λ of the count decay; the classifier's co-visit channel and the
    #: related-pages reads age counts at the same rate.
    decay = half_life_to_decay(HALF_LIFE_S)

    def __init__(
        self,
        repo: "MemexRepository",
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.repo = repo
        self.clock = clock
        # (user, session) -> recent distinct URLs, oldest first.  Kept
        # across ticks so a session spanning two mining rounds still
        # pairs its late visits with its early ones.
        self._tails: OrderedDict[tuple[str, int], list[str]] = OrderedDict()
        # Where the stored matrix stops: the last visit folded in and
        # the rounds mined, committed with the counts.  Walking the
        # visits up to it again rebuilds the tails a miner that never
        # stopped would hold.
        self._last_visit_id, self._rounds = repo.covisit_cursor()
        last = self._last_visit_id
        for row in repo.db.table("visits").select(
            lambda r: r["visit_id"] <= last
            and r["archive_mode"] == ARCHIVE_COMMUNITY,
            order_by="visit_id",
        ):
            self._follow(row)
        self.mined_count = 0
        self.pruned_count = 0

    def _follow(self, row: dict) -> list[str]:
        """Move the visit's session tail on to its URL; returns the other
        URLs the tail held, which the visit pairs with."""
        key = (row["user_id"], row["session_id"])
        tail = self._tails.get(key)
        if tail is None:
            if len(self._tails) >= MAX_OPEN_SESSIONS:
                self._tails.popitem(last=False)
            tail = []
            self._tails[key] = tail
        else:
            self._tails.move_to_end(key)
        url = row["url"]
        # Self-pair exclusion: a revisit never pairs a page with itself.
        partners = [other for other in tail if other != url]
        if len(partners) < len(tail):
            tail.remove(url)
        tail.append(url)
        del tail[: -SESSION_TAIL]
        return partners

    def run_once(self) -> int:
        last = self._last_visit_id
        rows = self.repo.db.table("visits").select(
            lambda r: r["visit_id"] > last
            and r["archive_mode"] == ARCHIVE_COMMUNITY,
            order_by="visit_id",
        )
        if not rows:
            return 0
        increments: dict[tuple[str, str], float] = {}
        for row in rows:
            self._last_visit_id = max(self._last_visit_id, row["visit_id"])
            url = row["url"]
            for other in self._follow(row):
                pair = (url, other) if url < other else (other, url)
                increments[pair] = increments.get(pair, 0.0) + 1.0
        self._rounds += 1
        self.repo.upsert_covisits(
            increments, now=self.clock(), decay=self.decay,
            through=self._last_visit_id, rounds=self._rounds,
        )
        self.mined_count += len(rows)
        if self._rounds % COMPACT_EVERY == 0:
            self.pruned_count += self.repo.prune_covisits(
                now=self.clock(), decay=self.decay, floor=COMPACT_FLOOR,
            )
        return len(rows)
