"""Co-visitation miner semantics over an on-disk repository: decay,
session boundaries, self-pair exclusion, compaction, and the
change-stamp contract the related-pages cache invalidates on.
"""

import math

import pytest

from repro.retrieval import covisit
from repro.retrieval.covisit import (
    COMPACT_EVERY,
    CoVisitMinerDaemon,
    half_life_to_decay,
    related_scores,
)
from repro.storage.repository import MemexRepository
from repro.storage.schema import ARCHIVE_COMMUNITY, ARCHIVE_PRIVATE

@pytest.fixture
def repo(tmp_path):
    r = MemexRepository(tmp_path / "repo")
    yield r
    r.close()


class Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def visit(repo, user, url, *, at, session=1, mode=ARCHIVE_COMMUNITY):
    return repo.record_visit_batch([dict(
        user_id=user, url=url, at=at, session_id=session, referrer=None,
        archive_mode=mode)])[0]


def test_session_pairs_are_symmetric_unordered_counts(repo):
    clock = Clock(100.0)
    miner = CoVisitMinerDaemon(repo, clock=clock)
    visit(repo, "u", "http://a/", at=10.0)
    visit(repo, "u", "http://b/", at=20.0)
    visit(repo, "u", "http://c/", at=30.0)
    assert miner.run_once() == 3
    # Three visits in one session: 3 unordered pairs, count 1 each.
    assert len(repo.db.table("covisits")) == 3
    a_neighbors = dict(
        (u, round(c)) for u, c, _ in repo.covisits_for("http://a/")
    )
    assert a_neighbors == {"http://b/": 1, "http://c/": 1}
    # Symmetric: b sees a, too.
    assert {u for u, _, _ in repo.covisits_for("http://b/")} == {
        "http://a/", "http://c/",
    }


def test_session_boundary_and_user_boundary_isolate_pairs(repo):
    clock = Clock(100.0)
    miner = CoVisitMinerDaemon(repo, clock=clock)
    visit(repo, "u", "http://a/", at=10.0, session=1)
    visit(repo, "u", "http://b/", at=20.0, session=2)   # other session
    visit(repo, "v", "http://c/", at=30.0, session=1)   # other user
    miner.run_once()
    assert len(repo.db.table("covisits")) == 0


def test_session_tail_survives_across_mining_rounds(repo):
    clock = Clock(100.0)
    miner = CoVisitMinerDaemon(repo, clock=clock)
    visit(repo, "u", "http://a/", at=10.0)
    miner.run_once()
    assert len(repo.db.table("covisits")) == 0
    # The same session continues after the mining tick: the late visit
    # must still pair with the early one.
    visit(repo, "u", "http://b/", at=20.0)
    miner.run_once()
    assert len(repo.db.table("covisits")) == 1


def test_self_pairs_are_excluded(repo):
    clock = Clock(100.0)
    miner = CoVisitMinerDaemon(repo, clock=clock)
    visit(repo, "u", "http://a/", at=10.0)
    visit(repo, "u", "http://a/", at=20.0)   # revisit
    visit(repo, "u", "http://a/", at=30.0)
    miner.run_once()
    assert len(repo.db.table("covisits")) == 0
    # ...but the revisited page still pairs with OTHER pages once.
    visit(repo, "u", "http://b/", at=40.0)
    miner.run_once()
    rows = repo.covisits_for("http://a/")
    assert [(u, round(c)) for u, c, _ in rows] == [("http://b/", 1)]


def test_private_visits_never_enter_the_matrix(repo):
    clock = Clock(100.0)
    miner = CoVisitMinerDaemon(repo, clock=clock)
    visit(repo, "u", "http://a/", at=10.0, mode=ARCHIVE_PRIVATE)
    visit(repo, "u", "http://b/", at=20.0, mode=ARCHIVE_PRIVATE)
    miner.run_once()
    assert len(repo.db.table("covisits")) == 0


def test_counts_decay_with_the_configured_half_life(repo):
    half_life = 100.0
    clock = Clock(0.0)
    miner = CoVisitMinerDaemon(repo, clock=clock)
    miner.decay = half_life_to_decay(half_life)
    visit(repo, "u", "http://a/", at=0.0, session=1)
    visit(repo, "u", "http://b/", at=1.0, session=1)
    miner.run_once()

    # One half-life later the same pair reinforces: old count halves
    # before the +1, so the stored count is 1.5, not 2.
    clock.now = half_life
    visit(repo, "u", "http://a/", at=half_life, session=2)
    visit(repo, "u", "http://b/", at=half_life + 1, session=2)
    miner.run_once()
    rows = repo.covisits_for("http://a/")
    assert len(rows) == 1
    assert rows[0][1] == pytest.approx(1.5, rel=1e-6)

    # Read-time decay keeps aging between compactions.
    scores = related_scores(
        repo, "http://a/", now=2 * half_life, decay=miner.decay,
    )
    assert scores[0][1] == pytest.approx(0.75, rel=1e-6)


def test_compaction_drops_decayed_pairs(repo, monkeypatch):
    clock = Clock(0.0)
    monkeypatch.setattr(covisit, "COMPACT_FLOOR", 0.05)
    miner = CoVisitMinerDaemon(repo, clock=clock)
    miner.decay = half_life_to_decay(10.0)
    visit(repo, "u", "http://a/", at=0.0)
    visit(repo, "u", "http://b/", at=1.0)
    miner.run_once()
    assert len(repo.db.table("covisits")) == 1
    # Many half-lives later the count is far below the floor; drive
    # enough do-work rounds to trigger compaction.
    clock.now = 1000.0
    for i in range(COMPACT_EVERY):
        visit(repo, "w", f"http://solo{i}/", at=1000.0 + i, session=i)
        miner.run_once()
    assert len(repo.db.table("covisits")) == 0
    assert miner.pruned_count >= 1


def test_matrix_writes_bump_the_covisits_change_stamp(repo):
    clock = Clock(0.0)
    miner = CoVisitMinerDaemon(repo, clock=clock)
    before = repo.stamps.covisits
    visit(repo, "u", "http://a/", at=0.0)
    visit(repo, "u", "http://b/", at=1.0)
    miner.run_once()
    assert repo.stamps.covisits > before
    # An idle round (no new visits) must NOT bump the stamp — caches
    # would churn for nothing.
    quiet = repo.stamps.covisits
    miner.run_once()
    assert repo.stamps.covisits == quiet


def _mine_in_two_halves(root, *, restart):
    """One session's eight visits (five pages, so some are revisits)
    mined four at a time, the repository and the miner reopened between
    the halves when *restart*; returns the stored matrix."""
    clock = Clock(0.0)
    repo = MemexRepository(root, sync=True)
    miner = CoVisitMinerDaemon(repo, clock=clock)
    for half in (0, 1):
        if half and restart:
            repo.close()
            repo = MemexRepository(root, sync=True)
            miner = CoVisitMinerDaemon(repo, clock=clock)
        for i in range(4 * half, 4 * half + 4):
            clock.now += 60.0
            visit(repo, "u", f"http://p{i % 5}/", at=clock.now)
        assert miner.run_once() == 4
    assert miner.run_once() == 0
    rows = sorted(
        (row["pair_id"], row["count"], row["last_at"])
        for row in repo.db.table("covisits").scan()
    )
    repo.close()
    return rows


def test_a_restarted_miner_resumes_where_its_stored_counts_stop(tmp_path):
    """The cursor is committed with the counts, and the session's tail is
    rebuilt from the visits up to it: nothing is mined twice, and the
    second half still pairs with the first."""
    uninterrupted = _mine_in_two_halves(tmp_path / "one", restart=False)
    restarted = _mine_in_two_halves(tmp_path / "two", restart=True)
    assert restarted == uninterrupted
    assert "http://p3/\thttp://p4/" in {pair for pair, _, _ in restarted}


def test_decay_helper_halves_at_half_life():
    lam = half_life_to_decay(50.0)
    assert math.exp(-lam * 50.0) == pytest.approx(0.5)
    assert half_life_to_decay(0.0) == 0.0
