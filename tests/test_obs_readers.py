"""Every instrument has a reader.

A metric costs something on every event it counts and in every
``metrics_pull`` that ships it, so one exists only if something reads
it.  The readers are the benchmark (``bench/*.py``), the ``repro top``
dashboard (``obs/top.py``), the health checks (``obs/health.py``) and
the operator's triage notes (docs/OPERATIONS.md); a generic dumper such
as ``raw_snapshot`` or the ``stats`` servlet is not one.  A name nothing
reads is listed in :data:`KEPT` only when a test needs it to observe a
behaviour, and the entry says which test and what behaviour.

The registered names come from a run (one on-disk server and an
in-process 2-shard dispatcher, one request per servlet row, quiesced)
and from the registration calls in ``src/`` — the socket server and the
shard supervisor bind ports and fork, so they register only in the
source here.
"""

import re
from pathlib import Path

import pytest

from repro.core.memex import MemexServer
from repro.obs.top import split_name
from repro.shard.gather import LocalBackend, ShardDispatcher

from .test_servlet_table import REQUESTS

ROOT = Path(__file__).resolve().parent.parent
READERS = [
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "src/repro/obs/top.py",
    ROOT / "src/repro/obs/health.py",
    ROOT / "docs/OPERATIONS.md",
]
#: Unread names a test needs, each with the test and the behaviour.
KEPT = {
    "storage.wal.fsyncs": (
        "tests/test_server_batch.py (test_wal_append_many_one_fsync, "
        "test_kvstore_put_many_groups_log_appends) and "
        "tests/test_text_index_batch.py (test_a_batch_is_one_store_write): "
        "a group commit is one fsync; tests/test_server_group_commit.py "
        "(test_the_server_reports_every_fsync_of_both_logs): a server "
        "reports every fsync of both its logs; and "
        "(test_an_ack_is_one_catalog_fsync): an ack is one catalog.wal "
        "fsync and none in terms.kv"),
    "net.connections_total": (
        "tests/test_server_netserver.py (test_request_roundtrip_over_tcp, "
        "test_one_connection_carries_every_user, "
        "test_client_reconnects_before_sending_on_an_idled_out_connection, "
        "test_pool_cap_bounds_open_connections) and "
        "tests/test_client_pool.py: one pooled connection carries every "
        "user's requests, and a capped pool opens no more than its cap"),
    "net.timeouts_total": (
        "tests/test_server_netserver.py "
        "(test_idle_timeout_closes_connection_quietly, "
        "test_mid_frame_stall_gets_typed_timeout_error): an idle connection "
        "closes quietly, a mid-frame stall times out"),
    "server.scheduler.quarantines": (
        "tests/test_server_scheduler.py "
        "(test_scheduler_transitions_recorded_as_metrics) and "
        "tests/test_obs_logging_health.py "
        "(test_scheduler_quarantine_and_parole_log_and_count): a daemon that "
        "keeps failing is quarantined once"),
    "server.scheduler.paroles": (
        "tests/test_server_scheduler.py "
        "(test_concurrent_ticks_exactly_once_per_round, "
        "test_concurrent_parole_is_a_single_decision) and "
        "tests/test_obs_logging_health.py "
        "(test_scheduler_quarantine_and_parole_log_and_count): racing ticks "
        "parole a quarantined daemon exactly once"),
}
_REGISTRATION = re.compile(
    r"\.(?:counter|gauge|histogram)(?:_func)?\(\s*\"([\w.]+)\"")


def _names(registry):
    snapshot = registry.raw_snapshot()
    return {
        split_name(key)[0]
        for section in ("counters", "gauges", "histograms")
        for key in snapshot[section]
    }


@pytest.fixture(scope="module")
def run_names(tmp_path_factory):
    """Every metric name a server and a 2-shard dispatcher register after
    one request per servlet row."""
    one = MemexServer(
        lambda url: None, root=str(tmp_path_factory.mktemp("one")), sync=True)
    shards = [MemexServer(lambda url: None) for _ in range(2)]
    dispatcher = ShardDispatcher([LocalBackend(s.registry) for s in shards])
    try:
        for name, fields in REQUESTS.items():
            one.transport.request("ann", {"servlet": name, **fields})
            dispatcher.dispatch({"servlet": name, "user_id": "ann", **fields})
        for server in (one, *shards):
            server.process_background_work()
        return set().union(*(_names(s.metrics) for s in (one, *shards)))
    finally:
        dispatcher.close()
        for server in (one, *shards):
            server.close()


@pytest.fixture(scope="module")
def registered(run_names):
    """The run's names plus every name a registration call in ``src/``
    spells out."""
    names = set(run_names)
    for path in (ROOT / "src").rglob("*.py"):
        names.update(_REGISTRATION.findall(path.read_text()))
    return names


def _read(name, text):
    return re.search(rf"(?<![\w.]){re.escape(name)}(?![\w.])", text) is not None


@pytest.fixture(scope="module")
def reader_text():
    return "\n".join(path.read_text() for path in READERS)


def test_every_registered_name_has_a_reader_or_a_kept_reason(
    registered, reader_text,
):
    unread = sorted(
        name for name in registered
        if name not in KEPT and not _read(name, reader_text))
    assert unread == [], (
        "registered but read by nothing in bench/, obs/top.py, "
        "obs/health.py or docs/OPERATIONS.md: delete them, or list them "
        f"in KEPT with the test that needs them: {unread}")


def test_every_kept_name_is_registered_unread_and_used_by_its_test(
    registered, reader_text,
):
    assert sorted(set(KEPT) - registered) == [], "KEPT names nothing registers"
    assert sorted(n for n in KEPT if _read(n, reader_text)) == [], (
        "a reader reads these already; drop them from KEPT")
    for name, reason in KEPT.items():
        files = re.findall(r"tests/\w+\.py", reason)
        assert files, (name, "the reason names no test file")
        for path in files:
            assert name in (ROOT / path).read_text(), (name, path)
        for test in re.findall(r"(?<![/\w])test_\w+", reason):
            assert any(f"def {test}(" in (ROOT / path).read_text()
                       for path in files), (name, test)


def test_the_run_reaches_every_in_process_layer(run_names):
    """Guard the fixture itself: a name registered under a computed
    string is seen only by the run, so the run must reach every layer."""
    for name in ("server.servlets.latency", "server.scheduler.run_latency",
                 "cache.hits", "storage.versioning.lag",
                 "storage.relational.commits", "storage.kvstore.puts",
                 "storage.wal.fsyncs"):
        assert name in run_names, name
