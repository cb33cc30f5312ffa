"""A server stopped and reopened answers like one that never stopped.

For each seed one on-disk ``sync=True`` server replays a workload,
quiesces and closes with nothing saved; it is reopened, put through
``restore_state()`` and quiesced again.  Its twin replayed the same
workload and never stopped.  The two must hold the same clock, the same
co-visit matrix and the same vocabulary (each term string's document
frequency, and ``num_docs``), and answer every read row of ``SERVLETS``
byte for byte for every user.  What a restart derives, and from what,
is DESIGN.md §11's table.
"""

import shutil

import pytest

from repro.core import MemexSystem
from repro.core.api import corpus_fetcher
from repro.core.memex import MemexServer
from repro.core.servlet_table import SERVLETS
from repro.server.events import VisitEvent
from repro.server.protocol import encode_message
from repro.storage.codec import encode
from repro.storage.engine import Namespace
from repro.storage.kvstore import KVStore
from repro.storage.repository import COVISIT_CURSOR, MemexRepository
from repro.webgen import build_workload

SEEDS = (5, 11, 23)
MODES = ("ranked", "boolean", "hybrid")
SCOPES = ("all", "mine", "community")


def _ask(workload, profile):
    """``(query, folder path, a visited url)`` one user's reads ask about."""
    top = max(profile.interests.items(), key=lambda kv: (kv[1], kv[0]))[0]
    folder = profile.folder_for_topic(top) or next(iter(profile.folders))
    url = next(
        event.url for event in workload.events
        if isinstance(event, VisitEvent) and event.user_id == profile.user_id
    )
    return top.rsplit("/", 1)[-1].lower(), folder, url


#: Every read row: the requests one user sends it, from ``_ask``'s terms.
READS = {
    "folders_get": lambda q, f, u: [{}],
    "search": lambda q, f, u: [
        {"query": q, "mode": mode, "scope": scope}
        for mode in MODES for scope in SCOPES
    ],
    "recall": lambda q, f, u: [{"query": q, "around_days_ago": 2}],
    "trail": lambda q, f, u: [{"folder_path": f}],
    "context": lambda q, f, u: [{"folder_path": f}],
    "bill": lambda q, f, u: [{"days": 30}],
    "propose_hierarchy": lambda q, f, u: [{"folder_path": f}],
    "related_pages": lambda q, f, u: [{"url": u}],
    "themes_get": lambda q, f, u: [{}],
    "resources": lambda q, f, u: [{"query": q}],
    "profile_similar": lambda q, f, u: [{}],
    "interest_mates": lambda q, f, u: [{"query": q}],
    "recommend": lambda q, f, u: [{}],
    "popular_near_trail": lambda q, f, u: [{"folder_path": f}],
}
WRITES = {"register_user", "set_archive_mode", "visit", "import_history",
          "bookmark", "folder_create", "folder_move", "apply_hierarchy"}
#: Timings and counters of the requests before them: not a restart's to keep.
OBSERVABILITY = {"stats", "health", "metrics_pull"}


def _replayed(workload, root):
    system = MemexSystem.from_workload(workload, root=str(root), sync=True)
    system.replay(workload.events)
    return system.server


def _reopened(workload, root):
    server = MemexServer(corpus_fetcher(workload.corpus), root=str(root),
                         sync=True)
    server.restore_state()
    server.process_background_work()
    return server


@pytest.fixture(scope="module", params=SEEDS, ids=lambda seed: f"seed{seed}")
def servers(request, tmp_path_factory):
    """``(workload, twin, reopened, a copy of the stopped data dir)``."""
    workload = build_workload(
        seed=request.param, num_users=3, days=4.0, pages_per_leaf=4)
    root = tmp_path_factory.mktemp(f"restart{request.param}")
    twin = _replayed(workload, root / "twin")
    _replayed(workload, root / "stopped").close()
    shutil.copytree(root / "stopped", root / "copy")
    reopened = _reopened(workload, root / "stopped")
    yield workload, twin, reopened, root / "copy"
    reopened.close()
    twin.close()


def _vocabulary(server):
    vocab = server.vectorizer.vocab
    terms = {vocab.term(tid): vocab.doc_freq(tid) for tid in range(len(vocab))}
    return terms, vocab.num_docs


def _covisits(server):
    return sorted(
        (row["pair_id"], row["count"], row["last_at"])
        for row in server.repo.db.table("covisits").scan()
    )


def _answers(server, workload, name):
    out = []
    for profile in workload.profiles:
        for fields in READS[name](*_ask(workload, profile)):
            reply = server.transport.request(
                profile.user_id, {"servlet": name, **fields})
            out.append(encode_message(reply))
    return out


def test_every_row_is_a_read_a_write_or_observability():
    assert set(READS) | WRITES | OBSERVABILITY == set(SERVLETS)
    assert not set(READS) & (WRITES | OBSERVABILITY)


def test_the_clock_resumes_where_it_stopped(servers):
    _, twin, reopened, _ = servers
    assert twin.now > 0.0
    assert reopened.now == twin.now


def test_no_visit_is_mined_into_the_covisit_matrix_twice(servers):
    _, twin, reopened, _ = servers
    assert _covisits(twin)
    assert _covisits(reopened) == _covisits(twin)


def test_the_vocabulary_counts_every_page_once(servers):
    _, twin, reopened, _ = servers
    assert _vocabulary(twin)[1] > 0
    assert _vocabulary(reopened) == _vocabulary(twin)


@pytest.mark.parametrize("name", sorted(READS))
def test_every_read_answers_byte_for_byte(servers, name):
    workload, twin, reopened, _ = servers
    assert _answers(reopened, workload, name) == _answers(twin, workload, name)


def test_a_data_dir_the_old_save_path_wrote_restores_the_same(
    servers, monkeypatch,
):
    """What a stop used to save — classifier models, a vocabulary with
    the pages it counts, the clock — and the dense vectors of the
    id-seeded basis are dead keys: a restore reads none of them.  The
    co-visit matrix comes with no cursor, and is not mined again."""
    workload, twin, _, copy = servers
    with MemexRepository(copy, sync=True) as repo:
        repo.db.delete("cursors", COVISIT_CURSOR)
    kv = KVStore(copy / "terms.kv", sync=True)
    models, dense = Namespace(kv, "models"), Namespace(kv, "dense")
    models.put(b"vocabulary", encode({
        "terms": ["stale"], "doc_freq": [7], "num_docs": 7,
        "pages": ["http://stale/"]}))
    models.put(b"server_clock", encode({"now": 9e9}))
    for profile in workload.profiles:
        models.put(f"classifier:{profile.user_id}".encode(),
                   encode({"model": {}, "trained_on": 99}))
    for key, _ in list(Namespace(kv, "embed").items()):
        dense.put(key, encode({"v": [1.0] + [0.0] * 127}))
    kv.close()

    read: list[bytes] = []
    for method in ("get", "prefix"):
        real = getattr(KVStore, method)
        monkeypatch.setattr(
            KVStore, method,
            lambda self, key, *rest, real=real: read.append(key)
            or real(self, key, *rest))
    server = _reopened(workload, copy)
    try:
        monkeypatch.undo()
        assert not [key for key in read
                    if key.startswith((b"models\x00", b"dense\x00"))]
        assert server.now == twin.now
        assert _vocabulary(server) == _vocabulary(twin)
        assert _covisits(server) == _covisits(twin)
        for name in READS:
            assert _answers(server, workload, name) == \
                _answers(twin, workload, name), name
    finally:
        server.close()
