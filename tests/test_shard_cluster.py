"""Cluster integration over real forked workers.

The contract under test: a client cannot tell a one-shard cluster from
a single server (identical responses through the router), and a
multi-shard cluster degrades gracefully — scatter reads go partial, an
owner-shard request for a dead shard fails with a retryable typed
error, and routing resumes once the supervisor restarts the worker.
"""

import time

import pytest

from repro.core import MemexSystem
from repro.core.api import corpus_fetcher
from repro.core.memex import MemexServer
from repro.errors import CODE_UNAVAILABLE
from repro.server.daemons import FetchedPage
from repro.server.events import VisitEvent
from repro.shard import MemexCluster
from repro.webgen import build_workload


@pytest.fixture(scope="module")
def shard_workload():
    return build_workload(
        seed=11,
        num_users=4,
        days=8,
        pages_per_leaf=8,
        bookmark_prob=0.25,
        community_core=4,
        community_fringe=0,
    )


def _workload_factory(workload):
    fetch = corpus_fetcher(workload.corpus)

    def factory(shard_id, root):
        return MemexServer(fetch, root=root)

    return factory


def _page_factory(n=12):
    pages = {
        f"http://p{i:02d}/": FetchedPage(
            f"http://p{i:02d}/", f"Page {i}", f"alpha beta text {i}", (),
        )
        for i in range(n)
    }

    def factory(shard_id, root):
        return MemexServer(pages.get, root=root)

    return factory


def test_one_shard_cluster_matches_direct_dispatch(shard_workload):
    """Router vs in-process tunnel: same events, byte-identical answers.

    Single-process mode runs the same ShardDispatcher over one local
    backend, so every response through the router must equal direct
    dispatch — merges on the one-shard path are the identity.
    """
    wl = shard_workload
    users = [p.user_id for p in wl.profiles]
    direct = MemexSystem.from_workload(wl)
    with MemexCluster(
        _workload_factory(wl), 1, tick_interval=None, monitor=False,
    ) as cluster:
        for user in users:
            cluster.register_user(user, community=wl.name)
        # Identical replay regimes: no mid-replay ticks, one final
        # quiesce — daemon work happens at the same points in both.
        direct.replay(wl.events, tick_every=0)
        cluster.replay(wl.events)

        sample_url = next(
            e.url for e in wl.events if hasattr(e, "url")
        )
        token = next(
            w for w in corpus_fetcher(wl.corpus)(sample_url).text.split()
            if w.isalpha()
        )
        probes = [
            {"servlet": "search", "query": token, "k": 10},
            {"servlet": "folders_get"},
            {"servlet": "themes_get"},
            {"servlet": "recommend", "k": 8},
            {"servlet": "profile_similar", "k": 5},
            {"servlet": "resources", "query": token, "k": 8},
        ]
        compared = 0
        for user in users:
            for probe in probes:
                a = direct.server.transport.request(user, dict(probe))
                b = cluster.request(user, dict(probe))
                assert a == b, (user, probe["servlet"], a, b)
                compared += 1
        assert compared == len(users) * len(probes)
        # The comparison only means something if the system has state.
        search = cluster.request(users[0], {"servlet": "search",
                                            "query": token, "k": 10})
        assert search["status"] == "ok" and search["total"] > 0


def test_scatter_degrades_and_owner_requests_fail_retryable():
    factory = _page_factory()
    with MemexCluster(factory, 2, tick_interval=None, monitor=False) as cluster:
        users = [f"user{i:02d}" for i in range(6)]
        for user in users:
            cluster.register_user(user)
        owners = {cluster.ring.shard_for(user) for user in users}
        assert owners == {0, 1}  # both shards own someone
        for i, user in enumerate(users):
            applet = cluster.connect(user)
            for j in range(3):
                applet.record_visit(f"http://p{(3 * i + j) % 12:02d}/",
                                    at=float(j))
        cluster.quiesce()

        healthy = cluster.request(users[0], {"servlet": "health"})
        assert healthy["health"] == "ready"
        assert healthy["partial"] is False and healthy["shards"] == 2

        st = cluster.stats(users[0])
        assert st["visits"] == 18
        assert set(st["by_shard"]) == {"0", "1"}
        assert st["router"]["shards"] == 2

        cluster.supervisor.auto_restart = False
        cluster.supervisor.kill(1)

        degraded = cluster.request(users[0], {"servlet": "health"})
        assert degraded["partial"] is True
        assert degraded["shards_failed"] == [1]
        assert degraded["health"] == "degraded"

        orphan = next(u for u in users if cluster.ring.shard_for(u) == 1)
        out = cluster.request(orphan, {"servlet": "search", "query": "alpha"})
        assert out["status"] == "error"
        assert out["error_code"] == CODE_UNAVAILABLE
        assert out["retryable"] is True

        # Survivors keep answering their owner-shard requests.
        survivor = next(u for u in users if cluster.ring.shard_for(u) == 0)
        ok = cluster.request(survivor, {"servlet": "search", "query": "alpha"})
        assert ok["status"] == "ok"

        cluster.supervisor.auto_restart = True
        assert cluster.supervisor.wait_until_up(1, timeout=30.0)
        assert cluster.supervisor.statuses() == {0: "up", 1: "up"}
        # Routing resumed (state is fresh: in-memory shard, no data dir).
        resumed = cluster.request(users[0], {"servlet": "health"})
        assert resumed["partial"] is False


def test_register_user_broadcasts_to_every_shard():
    with MemexCluster(
        _page_factory(), 2, tick_interval=None, monitor=False,
    ) as cluster:
        out = cluster.request("alice", {"servlet": "register_user",
                                        "archive_mode": "community"})
        assert out["status"] == "ok"
        assert out["created"] is True
        assert out["shards"] == 2
        # Both shards authenticate alice during scatter — a one-shard
        # registration would error on the shard missing the user row.
        st = cluster.request("alice", {"servlet": "stats"})
        assert st["status"] == "ok"
        assert set(st["by_shard"]) == {"0", "1"}


def test_more_users_than_router_workers_do_not_wait_out_the_idle_timeout():
    """The router parks a worker per open connection.  The cluster's own
    transport used to keep one per user for ever, so user
    ``router_workers + 1`` sat in the accept queue until the 30 s idle
    timeout freed a worker; one connection now carries every user."""
    users = [f"user{i:02d}" for i in range(4)]
    events = [
        VisitEvent(user, float(10 * j + i), f"http://p{(i + j) % 12:02d}/")
        for j in range(3) for i, user in enumerate(users)
    ]
    started = time.monotonic()
    with MemexCluster(
        _page_factory(), 1, router_workers=2, tick_interval=None, monitor=False,
    ) as cluster:
        for user in users:
            cluster.register_user(user)
        counts = cluster.replay(events)
        assert counts["visit"] == len(events)
        assert cluster.stats(users[-1])["visits"] == len(events)
        assert cluster.metrics.counter_value("net.connections_total") == 1
    assert time.monotonic() - started < 15.0
