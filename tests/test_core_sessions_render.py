"""Tests for session inference and terminal rendering."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MemexSystem
from repro.core.memex import MemexServer
from repro.core.render import render_folder_view
from repro.core.sessions import DEFAULT_GAP, segment_visits


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


def test_import_history_backfills_unassigned_visits():
    """An import numbers the user's earlier session-0 visits with its own
    entries, after the highest client-stamped session, in the
    transaction that stores the entries."""
    system = MemexSystem(MemexServer(lambda u: None))
    applet = system.register_user("u")
    repo = system.server.repo
    # A client-stamped session 5, then two visits of a client that sent
    # no session, then an imported visit.
    applet.record_visit("http://a/", at=0.0, session_id=5)
    applet.record_visit("http://b/", at=10_000.0, session_id=0)
    applet.record_visit("http://c/", at=10_060.0, session_id=0)
    stamp = repo.stamps.visits
    out = applet.import_history([{"url": "http://d/", "at": 50_000.0}])
    assert out == {"imported": 1, "sessions_assigned": 3}
    # The new row and both rewritten ones move the visits stamp.
    assert repo.stamps.visits == stamp + 3
    visits = {v["url"]: v for v in repo.user_visits("u")}
    assert visits["http://b/"]["session_id"] == visits["http://c/"]["session_id"]
    assert visits["http://d/"]["session_id"] != visits["http://b/"]["session_id"]
    # New ids start above the client-assigned maximum.
    assert visits["http://b/"]["session_id"] > 5
    # Idempotent: nothing left to assign.
    assert applet.import_history([]) == {"imported": 0, "sessions_assigned": 0}


def test_an_imported_history_keeps_its_times_behind_the_clock():
    """A history older than the server's clock is stored at its own
    times, so the gap rule still splits it; the clock moves once, to the
    latest entry, and an entry with no time is stamped with it."""
    system = MemexSystem(MemexServer(lambda u: None))
    applet = system.register_user("u")
    applet.record_visit("http://now/", at=1_000_000.0)
    out = applet.import_history([
        {"url": "http://old/", "at": 1_000.0},
        {"url": "http://older-half/", "at": 500_000.0},
    ])
    assert out == {"imported": 2, "sessions_assigned": 2}
    visits = {v["url"]: v for v in system.server.repo.user_visits("u")}
    assert visits["http://old/"]["at"] == 1_000.0
    assert visits["http://older-half/"]["at"] == 500_000.0
    assert visits["http://old/"]["session_id"] != visits[
        "http://older-half/"]["session_id"]
    assert system.server.now == 1_000_000.0
    applet.import_history([
        {"url": "http://later/", "at": 2_000_000.0}, {"url": "http://untimed/"},
    ])
    visits = {v["url"]: v for v in system.server.repo.user_visits("u")}
    assert visits["http://untimed/"]["at"] == system.server.now == 2_000_000.0


def test_import_history_of_nothing_assigns_nothing():
    system = MemexSystem(MemexServer(lambda u: None))
    applet = system.register_user("nobody")
    assert applet.import_history([]) == {"imported": 0, "sessions_assigned": 0}
    assert len(system.server.repo.db.table("visits")) == 0


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
    system = MemexSystem(MemexServer(lambda u: None))
    applet = system.register_user("quiet")
    applet.set_archive_mode("off")
    out = applet.import_history([{"url": "http://x/", "at": 1.0}])
    assert out["imported"] == 0
    assert applet.dropped_events == 1
    assert len(system.server.repo.db.table("visits")) == 0


def test_import_history_is_one_group_commit():
    """A 50-entry import commits pages, visits and the inferred session
    ids once (it used to commit three times per entry), and leaves
    exactly the rows that 50 per-event session-less ``visit`` requests
    followed by an empty import, which numbers them, leave."""
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
    assert db._n_commits - before == 1

    reference = MemexSystem(MemexServer(lambda u: None))
    per_event = reference.register_user("mover")
    for entry in entries:
        per_event.record_visit(
            entry["url"], at=entry["at"], referrer=entry["referrer"],
            session_id=0)
    assert per_event.import_history([]) == {
        "imported": 0, "sessions_assigned": 50}
    for table in ("visits", "pages"):
        assert list(db.table(table).scan()) == list(
            reference.server.repo.db.table(table).scan()), table
    assert imported.server.crawler.backlog == reference.server.crawler.backlog
    assert imported.server.now == reference.server.now


def test_concurrent_imports_of_one_user_never_share_a_session_id():
    """Each import numbers from the user's highest session id: two that
    read it at once would give their entries the same id."""
    system = MemexSystem(MemexServer(lambda u: None))
    system.register_user("mover")
    ask = system.server.transport.request
    errors = []

    def importer(i):
        try:
            for j in range(10):
                ask("mover", {"servlet": "import_history", "entries": [
                    {"url": f"http://h/{i}/{j}", "at": float(j)}]})
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=importer, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    visits = system.server.repo.user_visits("mover")
    assert len(visits) == 60
    assert len({v["session_id"] for v in visits}) == 60
