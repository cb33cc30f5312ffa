"""Tests for session inference and terminal rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.render import render_folder_view
from repro.core.sessions import DEFAULT_GAP, assign_session_ids, segment_visits
from repro.storage.repository import MemexRepository
from repro.storage.schema import ARCHIVE_COMMUNITY


def _row(visit_id, at, user="u", url=None, session_id=0):
    return {
        "visit_id": visit_id, "user_id": user, "at": at,
        "url": url or f"http://p{visit_id}/", "session_id": session_id,
    }


# -- segmentation -----------------------------------------------------------

def test_segment_splits_on_gap():
    rows = [_row(1, 0.0), _row(2, 60.0), _row(3, 60.0 + DEFAULT_GAP + 1),
            _row(4, 60.0 + DEFAULT_GAP + 90)]
    sessions = segment_visits(rows)
    assert len(sessions) == 2
    assert sessions[0].urls == ["http://p1/", "http://p2/"]
    assert sessions[1].visit_ids == [3, 4]
    assert (sessions[0].started_at, sessions[0].ended_at) == (0.0, 60.0)


def test_segment_single_and_empty():
    assert segment_visits([]) == []
    one = segment_visits([_row(1, 5.0)])
    assert len(one) == 1
    assert one[0].started_at == one[0].ended_at == 5.0
    assert len(one[0].urls) == 1


def test_segment_sorts_defensively():
    rows = [_row(2, 100.0), _row(1, 50.0)]
    sessions = segment_visits(rows)
    assert sessions[0].visit_ids == [1, 2]


def test_segment_rejects_mixed_users():
    with pytest.raises(ValueError):
        segment_visits([_row(1, 0.0, user="a"), _row(2, 1.0, user="b")])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0, 10_000), min_size=1, max_size=30),
       st.floats(1, 1000))
def test_segment_properties(times, gap):
    rows = [_row(i, t) for i, t in enumerate(sorted(times))]
    sessions = segment_visits(rows, gap=gap)
    # Partition: every visit in exactly one session, order preserved.
    ids = [v for s in sessions for v in s.visit_ids]
    assert ids == [r["visit_id"] for r in sorted(rows, key=lambda r: r["at"])]
    # No intra-session gap exceeds the threshold; inter-session gaps do.
    flat = sorted(times)
    by_id = {i: t for i, t in enumerate(flat)}
    for s in sessions:
        for a, b in zip(s.visit_ids, s.visit_ids[1:]):
            assert by_id[b] - by_id[a] <= gap


def test_assign_session_ids_backfills_missing():
    repo = MemexRepository()
    repo.add_user("u", now=0.0)
    # Client-stamped session 5, then imported history with session 0.
    repo.record_visit_batch([dict(
        user_id="u", url="http://a/", at=0.0, session_id=5, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])
    v2 = repo.record_visit_batch([dict(
        user_id="u", url="http://b/", at=10_000.0, session_id=0, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])[0]
    v3 = repo.record_visit_batch([dict(
        user_id="u", url="http://c/", at=10_060.0, session_id=0, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])[0]
    v4 = repo.record_visit_batch([dict(
        user_id="u", url="http://d/", at=50_000.0, session_id=0, referrer=None,
        archive_mode=ARCHIVE_COMMUNITY)])[0]
    updated = assign_session_ids(repo, "u")
    assert updated == 3
    visits = {v["visit_id"]: v for v in repo.user_visits("u")}
    assert visits[v2]["session_id"] == visits[v3]["session_id"]
    assert visits[v4]["session_id"] != visits[v2]["session_id"]
    # New ids start above the client-assigned maximum.
    assert visits[v2]["session_id"] > 5
    # Idempotent: nothing left to assign.
    assert assign_session_ids(repo, "u") == 0
    repo.close()


def test_assign_session_ids_empty_user():
    repo = MemexRepository()
    assert assign_session_ids(repo, "nobody") == 0
    repo.close()


# -- rendering --------------------------------------------------------------------

def test_render_folder_view():
    view = {"folders": [{
        "path": "Music", "name": "Music",
        "items": [
            {"url": "http://a/", "guess": False, "source": "bookmark",
             "confidence": None},
            {"url": "http://b/", "guess": True, "source": "guess",
             "confidence": 0.73},
        ],
    }]}
    text = render_folder_view(view)
    assert "[Music]" in text
    assert "? http://b/" in text
    assert "(0.73)" in text
    assert "1 filed, 1 guessed" in text


def test_render_folder_view_overflow():
    items = [
        {"url": f"http://x{i}/", "guess": False, "source": "bookmark",
         "confidence": None}
        for i in range(9)
    ]
    text = render_folder_view(
        {"folders": [{"path": "F", "name": "F", "items": items}]},
        max_items=3,
    )
    assert "... 6 more" in text


# -- history import servlet ---------------------------------------------------

def test_import_history_end_to_end():
    """Imported raw history gets sessions inferred and supports context
    recall, exactly like applet-recorded browsing."""
    from repro.core import MemexSystem
    from repro.core.memex import MemexServer
    from repro.server.daemons import FetchedPage

    pages = {}
    for topic, words in [
        ("music", "symphony orchestra violin opera concerto"),
        ("chess", "gambit knight bishop endgame checkmate"),
    ]:
        for i in range(4):
            url = f"http://{topic}{i}/"
            pages[url] = FetchedPage(url, topic, f"{words} {i}", ())

    system = MemexSystem(MemexServer(lambda u: pages.get(u)))
    applet = system.register_user("mover")
    # Two bursts separated by a big gap: music day, then chess day.
    entries = []
    for i in range(4):
        entries.append({"url": f"http://music{i}/", "at": 1000.0 + i * 60})
    for i in range(4):
        entries.append({"url": f"http://chess{i}/", "at": 200_000.0 + i * 60})
    out = applet.import_history(entries)
    assert out["imported"] == 8
    assert out["sessions_assigned"] == 8
    repo = system.server.repo
    sessions = {v["session_id"] for v in repo.user_visits("mover")}
    assert len(sessions) == 2
    assert 0 not in sessions
    # Mining runs over the imported history like any other.
    applet.bookmark("http://music0/", "Music", at=300_000.0)
    applet.bookmark("http://music1/", "Music", at=300_001.0)
    applet.bookmark("http://chess0/", "Chess", at=300_002.0)
    applet.bookmark("http://chess1/", "Chess", at=300_003.0)
    system.server.process_background_work()
    view = applet.context_view("Music")
    assert view["found"]
    assert set(view["session"]["trail"]) <= {f"http://music{i}/" for i in range(4)}


def test_import_history_respects_archive_off():
    from repro.core import MemexSystem
    from repro.core.memex import MemexServer

    system = MemexSystem(MemexServer(lambda u: None))
    applet = system.register_user("quiet")
    applet.set_archive_mode("off")
    out = applet.import_history([{"url": "http://x/", "at": 1.0}])
    assert out["imported"] == 0
    assert applet.dropped_events == 1
    assert len(system.server.repo.db.table("visits")) == 0


def test_import_history_is_one_group_commit():
    """A 50-entry import commits pages + visits once and the inferred
    session ids once (it used to commit three times per entry), and
    leaves exactly the rows that 50 per-event ``visit`` requests followed
    by session inference leave."""
    from repro.core import MemexSystem
    from repro.core.memex import MemexServer
    from repro.core.sessions import assign_session_ids

    entries = [
        # Revisits included: page upserts must dedup inside the batch.
        {"url": f"http://h/{i % 40}", "at": 1000.0 + i * 60 + (i // 25) * 90_000,
         "referrer": f"http://h/{i - 1}" if i % 5 else None}
        for i in range(50)
    ]
    imported = MemexSystem(MemexServer(lambda u: None))
    applet = imported.register_user("mover")
    db = imported.server.repo.db
    before = db._n_commits
    out = applet.import_history(entries)
    assert out == {"imported": 50, "sessions_assigned": 50}
    # One commit for the import, one for the session-id write-back.
    assert db._n_commits - before == 2

    reference = MemexSystem(MemexServer(lambda u: None))
    per_event = reference.register_user("mover")
    for entry in entries:
        per_event.record_visit(
            entry["url"], at=entry["at"], referrer=entry["referrer"],
            session_id=0)
    assign_session_ids(reference.server.repo, "mover")
    for table in ("visits", "pages"):
        assert list(db.table(table).scan()) == list(
            reference.server.repo.db.table(table).scan()), table
    assert imported.server.crawler.backlog == reference.server.crawler.backlog
    assert imported.server.now == reference.server.now
