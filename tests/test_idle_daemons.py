"""A quiesced server's idle mining rounds read nothing and hold nothing.

Once a replay has been mined to the end, a ``covisit`` or ``themes`` run
has nothing to do, and finds that out from what it keeps in hand (the
last visit id it read; the filings stamp and the vocabulary's size)
rather than by walking the ``visits`` or ``folder_pages`` table; so does
a ``themes`` run whose inputs are those of a run that found too few
folders to build a taxonomy from.  The
versioning coordinator has handed every version to every consumer, and
the acks have reclaimed them.  Both hold at two archive sizes.
"""

import pytest

from repro.core import MemexSystem
from repro.server.daemons import ThemeDaemon
from repro.storage.relational import Table
from repro.webgen import build_workload


@pytest.fixture(scope="module", params=[(6, 7), (12, 14)], ids=["6x7", "12x14"])
def quiesced(request):
    users, days = request.param
    workload = build_workload(
        seed=11, num_users=users, days=days, pages_per_leaf=10)
    system = MemexSystem.from_workload(workload)
    system.replay(workload.events)
    server = system.server
    server.process_background_work()
    yield server
    server.close()


def _count_rows_touched(monkeypatch):
    """Count every catalog row a ``Table`` read hands out or walks."""
    touched = []

    def counting(method, rows_of):
        def wrapper(self, *args, **kwargs):
            out = method(self, *args, **kwargs)
            touched.append((self.schema.name, rows_of(self, out)))
            return out
        return wrapper

    monkeypatch.setattr(Table, "_candidates", counting(
        Table._candidates, lambda table, rows: len(rows)))
    monkeypatch.setattr(Table, "get", counting(
        Table.get, lambda table, row: int(row is not None)))
    monkeypatch.setattr(Table, "max_key", counting(
        Table.max_key, lambda table, key: len(table._rows)))
    monkeypatch.setattr(Table, "scan", counting(
        Table.scan, lambda table, rows: len(table._rows)))
    return touched


def test_idle_covisit_and_themes_runs_touch_no_catalog_row(quiesced, monkeypatch):
    server = quiesced
    assert len(server.repo.db.table("visits")) > 800
    assert server.themes.taxonomy is not None
    touched = _count_rows_touched(monkeypatch)
    for _ in range(3):
        assert server.covisit.run_once() == 0
        assert server.themes.run_once() == 0
    assert sum(n for _, n in touched) == 0, touched


def test_a_themes_run_that_found_too_few_folders_is_not_repeated(
        quiesced, monkeypatch):
    themes = ThemeDaemon(quiesced.repo, quiesced.vectorizer)
    themes.MIN_PAGES_PER_FOLDER = 10 ** 6          # no folder qualifies
    touched = _count_rows_touched(monkeypatch)
    assert themes.run_once() == 0
    assert sum(n for _, n in touched) > 0          # it reads the filings once
    touched.clear()
    for _ in range(3):
        assert themes.run_once() == 0
    assert sum(n for _, n in touched) == 0, touched
    # A filing change is new input: the next run reads them again.
    stamps = quiesced.repo.stamps
    monkeypatch.setattr(stamps, "filings", stamps.filings + 1)
    assert themes.run_once() == 0
    assert sum(n for _, n in touched) > 0
    assert themes.taxonomy is None


def test_acks_reclaim_every_version_of_a_quiesced_replay(quiesced):
    versions = quiesced.repo.versions
    assert versions.published_version > 1
    assert versions.live_versions() <= 1
    assert versions.gc() == 0


def test_the_hook_sees_a_run_that_has_work(quiesced, monkeypatch):
    # Last in the module: it leaves one more visit in the shared archive.
    server = quiesced
    touched = _count_rows_touched(monkeypatch)
    server.registry.dispatch({
        "servlet": "visit", "user_id": "user00", "url": "http://idle.example/",
        "session_id": 1,
    })
    touched.clear()
    assert server.covisit.run_once() == 1
    assert ("visits", 1) in touched
