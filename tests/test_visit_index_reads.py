"""A trail and a classifier run read the visits they need, not the table.

``build_trail_graph`` gathers its candidates through the ``visits.url``
index (deliberate and included pages) and the ``visits.topic_folder``
index (the classifier's filings into the folder set), then applies the
qualifying rule to those rows alone.  A classifier run reads unfiled
visits only for users who own a deliberate filing, through the
``visits.user_id`` index.  What either leaves behind must equal the
full-scan bodies kept in ``visits_reference``: trail payloads byte for
byte, and the ``visits`` and ``folder_pages`` tables row for row.
"""

import json

import pytest

from repro.core import MemexServer, MemexSystem
from repro.core.archive import folder_path
from repro.core.request import DAY
from repro.core.trails import (
    build_trail_graph,
    community_pages_for_folder,
    folder_and_descendants,
)
from repro.server.daemons import deliberate_filings
from repro.storage.codec import decode, encode
from repro.storage.relational import Table
from repro.storage.wal import WriteAheadLog
from repro.webgen import build_workload

from .visits_reference import _reference_build_trail_graph, _reference_classifier_run

SEEDS = (5, 13, 31)
WINDOWS_DAYS = (1, 14, 365)


def _archive(seed, **server_kwargs):
    workload = build_workload(seed=seed, num_users=4, days=4, pages_per_leaf=8)
    system = MemexSystem.from_workload(workload, **server_kwargs)
    system.replay(workload.events, tick_every=40)
    system.server.process_background_work()
    return workload, system


@pytest.fixture(scope="module", params=SEEDS)
def archive(request):
    workload, system = _archive(request.param)
    with system:
        yield workload, system


def _trail_cases(server):
    """``(owner, path, folder ids)`` for every folder of every user, and
    one path each user does not have (every trail ``mixed`` asks for)."""
    repo = server.repo
    for row in repo.db.table("users").scan():
        owner = row["user_id"]
        for folder in repo.user_folders(owner):
            fid = folder["folder_id"]
            yield owner, folder_path(fid), folder_and_descendants(repo, fid)
        yield owner, "No/Such/Folder", []


def _payload(graph):
    return json.dumps(graph.to_payload())


def _trail_kwargs(server, owner, path, folder_ids, window_days):
    since = server.now - window_days * DAY
    return {
        "folder_paths": [path], "since": since, "user_id": owner,
        "include_urls": community_pages_for_folder(
            server, owner, folder_ids, since=since),
    }


def _spy_on_visit_reads(monkeypatch):
    """Every ``visits`` read as ``where``: a dict for an equality select,
    the predicate (or None) for a read of every row."""
    reads = []
    candidates, scan = Table._candidates, Table.scan

    def spy_candidates(self, where):
        if self.schema.name == "visits":
            reads.append(where)
        return candidates(self, where)

    def spy_scan(self):
        if self.schema.name == "visits":
            reads.append(None)
        return scan(self)

    monkeypatch.setattr(Table, "_candidates", spy_candidates)
    monkeypatch.setattr(Table, "scan", spy_scan)
    return reads


# -- trails --------------------------------------------------------------------

def test_every_trail_equals_the_full_scan(archive):
    _, system = archive
    server = system.server
    nonempty = included = guessed = 0
    for owner, path, folder_ids in _trail_cases(server):
        for window_days in WINDOWS_DAYS:
            kwargs = _trail_kwargs(
                server, owner, path, folder_ids, window_days)
            served = build_trail_graph(server.repo, folder_ids, **kwargs)
            reference = _reference_build_trail_graph(
                server.repo, folder_ids, **kwargs)
            assert _payload(served) == _payload(reference), (
                owner, path, window_days)
            nonempty += bool(served.nodes)
            included += bool(kwargs["include_urls"])
            guessed += any(n.confidence for n in served.nodes.values())
    assert nonempty and included and guessed, (nonempty, included, guessed)


def test_the_trail_servlet_answers_the_full_scan(archive):
    _, system = archive
    server = system.server
    for owner, path, folder_ids in _trail_cases(server):
        for window_days in WINDOWS_DAYS:
            response = dict(server.registry.dispatch({
                "servlet": "trail", "user_id": owner, "folder_path": path,
                "window_days": float(window_days),
            }))
            assert response.pop("status") == "ok", response
            kwargs = _trail_kwargs(
                server, owner, path, folder_ids, window_days)
            reference = _reference_build_trail_graph(
                server.repo, folder_ids, **kwargs)
            assert json.dumps(response) == json.dumps(
                {"trail": reference.to_payload()})


def test_a_trail_reads_visits_through_the_url_and_topic_folder_indexes(
    archive, monkeypatch,
):
    _, system = archive
    server = system.server
    cases = list(_trail_cases(server))
    reads = _spy_on_visit_reads(monkeypatch)
    for owner, path, folder_ids in cases:
        reads.clear()
        kwargs = _trail_kwargs(server, owner, path, folder_ids, 365)
        reads.clear()       # the community pages' own read is not the trail's
        build_trail_graph(server.repo, folder_ids, **kwargs)
        assert all(
            isinstance(where, dict) and set(where) <= {"url", "topic_folder"}
            for where in reads
        ), reads
        if not folder_ids:
            assert reads == [], "a folder the user lacks read visits"


# -- the classifier --------------------------------------------------------------

LONERS = ("loner0", "loner1", "loner2")


def _with_loners(seed, tick_every, *, reference):
    """The archive replayed after three users with no filing have made
    many visits, so every run meets their unfiled visits first."""
    workload = build_workload(seed=seed, num_users=4, days=4, pages_per_leaf=8)
    system = MemexSystem.from_workload(workload)
    server = system.server
    if reference:
        server.classifier.run_once = lambda: _reference_classifier_run(
            server.classifier)
    urls = sorted(workload.corpus.pages)
    for i, loner in enumerate(LONERS):
        system.register_user(loner, community=workload.name)
        server.transport.request_batch(loner, [
            {"servlet": "visit", "url": urls[(7 * i + j) % len(urls)],
             "at": 1.0 + j}
            for j in range(120)
        ])
    system.replay(workload.events, tick_every=tick_every)
    server.process_background_work()
    return system


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tick_every", [40, 10 ** 9])
def test_a_classifier_run_files_what_the_full_scan_filed(seed, tick_every):
    with _with_loners(seed, tick_every, reference=False) as served, \
            _with_loners(seed, tick_every, reference=True) as reference:
        for table in ("visits", "folder_pages"):
            assert list(served.server.repo.db.table(table).scan()) == \
                list(reference.server.repo.db.table(table).scan()), table
        classifier = served.server.classifier
        assert classifier.classified_count == \
            reference.server.classifier.classified_count > 0
        assert dict(classifier._model_versions) == \
            dict(reference.server.classifier._model_versions)
        unfiled = served.server.repo.db.table("visits").count(
            lambda r: r["topic_folder"] is None and r["user_id"] in LONERS)
        assert unfiled == 3 * 120


def test_a_run_reads_only_filing_owners_visits(archive, monkeypatch):
    workload, system = archive
    server = system.server
    classifier = server.classifier
    filings = deliberate_filings(server.repo)
    owners = {owner for owner, _, _ in filings}
    for loner in LONERS:
        assert loner not in owners
        before = (dict(classifier._models), dict(classifier._model_versions))
        assert classifier._maybe_train(loner, filings) is None
        assert (dict(classifier._models), dict(classifier._model_versions)) \
            == before, "training a user with no filing had a side effect"
    reads = _spy_on_visit_reads(monkeypatch)
    classifier.run_once()
    assert reads and all(
        isinstance(where, dict) and where.get("topic_folder", "") is None
        and where.get("user_id") in owners
        for where in reads
    ), reads


# -- a catalog written before visits.topic_folder was indexed ------------------

def _drop_topic_folder_index(wal_path):
    """Rewrite the log as an older catalog wrote it: ``visits`` created
    without the ``topic_folder`` index."""
    log = WriteAheadLog(wal_path)
    records = []
    for raw in log.replay():
        record = decode(raw)
        if record["kind"] == "create_table" and record["name"] == "visits":
            assert "topic_folder" in record["indexes"]
            record["indexes"] = [
                col for col in record["indexes"] if col != "topic_folder"]
        records.append(encode(record))
    log.rewrite(records)
    log.close()


def test_an_older_catalog_gets_the_index_on_open_and_the_same_trails(tmp_path):
    """The missing index is built on open (not a fallback scan): the
    stored rows are indexed by ``create_catalog`` asking for it, the log
    keeps its old ``create_table`` record, and every trail equals what
    the catalog answered before it was closed."""
    root = tmp_path / "memex"
    _, system = _archive(SEEDS[0], root=str(root))
    server = system.server
    cases = list(_trail_cases(server))
    answers = {}
    for owner, path, folder_ids in cases:
        for window_days in WINDOWS_DAYS:
            kwargs = _trail_kwargs(
                server, owner, path, folder_ids, window_days)
            answers[owner, path, window_days] = (kwargs, _payload(
                build_trail_graph(server.repo, folder_ids, **kwargs)))
    system.close()
    _drop_topic_folder_index(root / "catalog.wal")

    log = WriteAheadLog(root / "catalog.wal")
    old_schema = next(
        record for record in map(decode, log.replay())
        if record["kind"] == "create_table" and record["name"] == "visits")
    log.close()
    assert "topic_folder" not in old_schema["indexes"]

    with MemexServer(lambda url: None, root=str(root)) as reopened:
        repo = reopened.repo
        visits = repo.db.table("visits")
        assert "topic_folder" in visits.schema.indexes
        assert sum(len(pks) for pks in visits._hash["topic_folder"].values()) \
            == len(visits)
        for owner, path, folder_ids in cases:
            for window_days in WINDOWS_DAYS:
                kwargs, before = answers[owner, path, window_days]
                assert _payload(build_trail_graph(
                    repo, folder_ids, **kwargs)) == before
                assert _payload(_reference_build_trail_graph(
                    repo, folder_ids, **kwargs)) == before
