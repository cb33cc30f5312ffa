"""Failure injection: the §3 robustness claims under deliberate faults.

"It is important that the server recovers from network and programming
errors quickly, even if it has to discard a few client events."
"""

import random

import pytest

from repro.core import MemexSystem
from repro.core.memex import MemexServer
from repro.errors import VersioningError
from repro.server.daemons import (
    CrawlerDaemon,
    FetchedPage,
    IndexerDaemon,
    PageVectorizer,
)
from repro.storage import KVStore
from repro.storage.repository import MemexRepository
from repro.storage.wal import WriteAheadLog, encode_record


def good_page(url: str) -> FetchedPage:
    return FetchedPage(url, "T", f"text of {url}", ())


class FlakyFetcher:
    """Fails the first *failures* calls, then succeeds."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def __call__(self, url: str) -> FetchedPage:
        self.calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise ConnectionError("simulated network error")
        return good_page(url)


def test_crawler_aborts_version_on_fetch_crash():
    repo = MemexRepository()
    repo.versions.register_consumer("probe")
    fetch = FlakyFetcher(failures=1)
    crawler = CrawlerDaemon(repo, fetch)
    crawler.BATCH = 4
    for i in range(3):
        crawler.enqueue(f"http://p{i}/")
    with pytest.raises(ConnectionError):
        crawler.run_once()
    # The half-built version never became visible ...
    _, items = repo.versions.poll("probe")
    assert items == []
    # ... the failed batch went back on the queue ...
    assert crawler.backlog == 3
    # ... and the producer publishes everything on the retry.
    assert crawler.run_once() == 3
    _, items = repo.versions.poll("probe")
    assert len(items) == 3
    repo.close()


def test_scheduler_quarantines_permanently_broken_crawler():
    repo = MemexRepository()
    fetch = FlakyFetcher(failures=10**9)
    crawler = CrawlerDaemon(repo, fetch)
    crawler.BATCH = 4
    from repro.server.scheduler import DaemonScheduler
    sched = DaemonScheduler()
    sched.register(crawler)
    for i in range(20):
        crawler.enqueue(f"http://p{i}/")
    sched.tick(10)
    stats = sched.stats()["crawler"]
    assert stats["quarantined"]
    assert stats["failures"] == 3
    repo.close()


def test_system_survives_transient_fetch_failures():
    """End to end: a flaky network loses a daemon round; after it heals,
    background work converges and everything gets indexed."""
    pages = {f"http://p{i}/": good_page(f"http://p{i}/") for i in range(6)}
    fetch = FlakyFetcher(failures=2)

    def flaky(url):
        return fetch(url) if url in pages else None

    server = MemexServer(flaky)
    system = MemexSystem(server)
    applet = system.register_user("u")
    for i, url in enumerate(pages):
        applet.record_visit(url, at=float(i))
    server.process_background_work()
    stats = server.scheduler.stats()["crawler"]
    assert stats["failures"] >= 1
    assert not stats["quarantined"]
    assert server.index.num_docs == len(pages)
    assert server.crawler.backlog == 0


def test_indexer_tolerates_missing_text():
    """A page published but whose text vanished (store hiccup) is skipped
    without wedging the consumer."""
    repo = MemexRepository()
    crawler = CrawlerDaemon(repo, lambda u: good_page(u))
    crawler.BATCH = 8
    from repro.text.index import InvertedIndex
    index = InvertedIndex(repo.kv)
    indexer = IndexerDaemon(repo, index, vectorizer=PageVectorizer(repo))
    crawler.enqueue("http://a/")
    crawler.enqueue("http://b/")
    crawler.run_once()
    # Sabotage: drop a's raw text after publication.
    repo.rawtext.delete(b"http://a/")
    done = indexer.run_once()
    assert done == 1
    assert "http://b/" in index.document_ids()
    # Watermark advanced: the consumer is not stuck retrying forever.
    assert repo.versions.staleness("indexer") == 0
    repo.close()


def test_versioning_rejects_double_open_after_manual_misuse():
    repo = MemexRepository()
    repo.versions.open_version()
    with pytest.raises(VersioningError):
        repo.versions.open_version()
    repo.versions.abort_version()
    repo.versions.open_version()  # healthy again
    repo.close()


@pytest.mark.parametrize("cut", [1, 4, 7, 8, 9, 15])
def test_wal_truncated_at_any_point_recovers_prefix(tmp_path, cut):
    """Chop the log mid-record at various byte offsets: recovery must
    yield an intact prefix, never garbage, never an exception."""
    path = tmp_path / "t.wal"
    with WriteAheadLog(path) as log:
        for i in range(4):
            log.append(b"rec%d" % i)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - cut])
    with WriteAheadLog(path) as log:
        records = list(log.replay())
    assert records == [b"rec%d" % i for i in range(len(records))]
    assert len(records) < 4


def test_wal_random_corruption_never_crashes_recovery(tmp_path):
    rng = random.Random(0)
    for trial in range(25):
        path = tmp_path / f"fuzz{trial}.wal"
        with WriteAheadLog(path) as log:
            for i in range(6):
                log.append(bytes([i]) * rng.randint(1, 40))
        data = bytearray(path.read_bytes())
        # Flip a random byte.
        pos = rng.randrange(len(data))
        data[pos] ^= 0xFF
        path.write_bytes(bytes(data))
        log = WriteAheadLog(path)  # must not raise
        recovered = list(log.replay())
        assert len(recovered) <= 6
        log.append(b"post-recovery")  # and stays writable
        log.close()


def test_kvstore_survives_torn_log_tail(tmp_path):
    path = tmp_path / "kv.log"
    with KVStore(path) as kv:
        kv.put(b"a", b"1")
        kv.put(b"b", b"2")
    with open(path, "ab") as fh:
        fh.write(encode_record(b"half a record")[:6])
    with KVStore(path) as kv:
        assert kv.get(b"a") == b"1"
        assert kv.get(b"b") == b"2"
        kv.put(b"c", b"3")
    with KVStore(path) as kv:
        assert kv.get(b"c") == b"3"


def test_transport_rejects_random_garbage():
    from repro.server.protocol import decode_message
    from repro.errors import ProtocolError
    rng = random.Random(1)
    rejected = 0
    for _ in range(100):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 60)))
        try:
            decode_message(blob)
        except ProtocolError:
            rejected += 1
    assert rejected == 100  # random bytes essentially never parse


def test_poison_servlet_requests_leave_state_consistent():
    pages = {"http://ok/": good_page("http://ok/")}
    server = MemexServer(lambda u: pages.get(u))
    system = MemexSystem(server)
    system.register_user("u")
    before = len(server.repo.db.table("visits"))
    poison = [
        {"servlet": "visit", "user_id": "u", "url": None, "at": 1.0},
        {"servlet": "bookmark", "user_id": "u"},
        {"servlet": "folder_move", "user_id": "u", "url": "x", "to_folder": ""},
        {"servlet": "recall", "user_id": "u", "query": "x"},
        {"servlet": "bill", "user_id": "u", "days": "NaN-ish"},
    ]
    for req in poison:
        assert server.registry.dispatch(req)["status"] == "error"
    assert len(server.repo.db.table("visits")) == before
    good = server.registry.dispatch({
        "servlet": "visit", "user_id": "u", "url": "http://ok/", "at": 1.0,
    })
    assert good["status"] == "ok"
