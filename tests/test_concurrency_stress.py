"""Race-stress harness: concurrent socket clients vs ticking daemons.

A storm phase runs N writer threads (visits and bookmarks, single and
batched, over real TCP connections) and reader threads (search + health,
and one asking ``recommend`` / ``profile_similar``, whose profile builds
run outside the server lock) against one server while a daemon thread
ticks the scheduler the whole time.  After quiescing, the harness asserts
the concurrency invariants of the serving stack:

* **no torn responses** — every response decoded during the storm is a
  well-formed envelope with its servlet's full shape;
* **no lost visits** — every recorded visit landed exactly once
  (per-user counts and globally unique visit ids), and every visited
  page was archived;
* **deterministic reads** — cached search responses are bit-identical
  to re-serving, and bit-identical to a fresh single-threaded replay of
  the same events;
* **no stale profile** — the per-user profiles the server kept through
  the storm equal a from-scratch build over what it stored.

Iteration count scales with ``MEMEX_STRESS_ITERS`` (default 2; CI and
local soak runs raise it).
"""

import json
import os
import sys
import threading

import pytest

from repro.client.applet import MemexApplet
from repro.core import MemexSystem
from repro.core.memex import MemexServer
from repro.server.daemons import FetchedPage
from repro.server.transport import SocketTransport

from .profiles_reference import _reference_current_profiles, profile_payloads

ITERATIONS = int(os.environ.get("MEMEX_STRESS_ITERS", "2"))
N_WRITERS = 4
N_READERS = 2
VISITS_PER_WRITER = 20
N_PAGES = 30

SEARCH_SHAPE = {"hits", "total", "offset", "has_more"}
HIT_SHAPE = {"url", "score", "title", "snippet"}


def _pages():
    return {
        f"http://p{i:02d}/": FetchedPage(
            f"http://p{i:02d}/", f"Page {i}",
            f"alpha text {i} " + "beta " * (i % 3), (),
        )
        for i in range(N_PAGES)
    }


def _writer_urls(idx):
    return [
        f"http://p{(idx * 7 + i) % N_PAGES:02d}/"
        for i in range(VISITS_PER_WRITER)
    ]


def _record_all(applet, idx):
    for i, url in enumerate(_writer_urls(idx)):
        applet.record_visit(url, at=float(i))
        if i % 4 == 0:
            # Two shelves per parity: enough folders for a taxonomy, so
            # the profile readers have something to rebuild.
            applet.bookmark(url, f"shelf{idx % 2}", at=float(i))
    applet.flush()


def _quiesced_replay(pages):
    """The same events, single-threaded, in canonical order."""
    system = MemexSystem(MemexServer(pages.get))
    for idx in range(N_WRITERS):
        system.register_user(f"w{idx}")
    for idx in range(N_READERS):
        system.register_user(f"r{idx}")
    for idx in range(N_WRITERS):
        _record_all(system.connect(f"w{idx}"), idx)
    system.server.process_background_work()
    return system


def _search_requests():
    for query in ("alpha", "beta", "text 3"):
        for scope in ("all", "mine"):
            yield {
                "servlet": "search", "query": query,
                "scope": scope, "limit": 10, "offset": 0,
            }


@pytest.mark.parametrize("iteration", range(ITERATIONS))
def test_storm_loses_nothing_and_reads_deterministically(iteration):
    pages = _pages()
    system = MemexSystem(MemexServer(pages.get))
    server = system.server
    for idx in range(N_WRITERS):
        system.register_user(f"w{idx}")
    for idx in range(N_READERS):
        system.register_user(f"r{idx}")

    anomalies = []
    stop = threading.Event()

    def ticker():
        while not stop.is_set():
            server.scheduler.tick()

    def writer(idx, host, port):
        # Odd writers exercise the batched ingest path over the socket.
        batch_size = 5 if idx % 2 else 0
        try:
            with SocketTransport(host, port) as transport:
                applet = MemexApplet(
                    transport, f"w{idx}", batch_size=batch_size)
                _record_all(applet, idx)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            anomalies.append(f"writer {idx}: {type(exc).__name__}: {exc}")

    def reader(idx, host, port):
        try:
            with SocketTransport(host, port) as transport:
                for round_no in range(15):
                    for request in _search_requests():
                        response = transport.request(
                            f"r{idx}", dict(request))
                        if response.get("status") != "ok":
                            anomalies.append(
                                f"reader {idx}: error {response}")
                        elif not SEARCH_SHAPE <= set(response):
                            anomalies.append(
                                f"reader {idx}: torn search {response}")
                        elif any(
                            not HIT_SHAPE <= set(h)
                            for h in response["hits"]
                        ):
                            anomalies.append(
                                f"reader {idx}: torn hit in {response}")
                    health = transport.request(
                        f"r{idx}", {"servlet": "health"})
                    if health.get("status") != "ok":
                        anomalies.append(f"reader {idx}: health {health}")
        except Exception as exc:  # noqa: BLE001
            anomalies.append(f"reader {idx}: {type(exc).__name__}: {exc}")

    def profile_reader(host, port):
        try:
            with SocketTransport(host, port) as transport:
                for round_no in range(40):
                    user = f"w{round_no % N_WRITERS}"
                    for servlet, rows in (
                        ("recommend", "pages"), ("profile_similar", "users"),
                    ):
                        response = transport.request(user, {"servlet": servlet})
                        if response.get("status") != "ok" or \
                                not isinstance(response.get(rows), list):
                            anomalies.append(
                                f"profile reader: torn {servlet} {response}")
        except Exception as exc:  # noqa: BLE001
            anomalies.append(f"profile reader: {type(exc).__name__}: {exc}")

    with server.listen(workers=8) as net:
        host, port = net.address
        threads = [threading.Thread(target=ticker, daemon=True)]
        threads.append(
            threading.Thread(target=profile_reader, args=(host, port)))
        threads += [
            threading.Thread(target=writer, args=(i, host, port))
            for i in range(N_WRITERS)
        ]
        threads += [
            threading.Thread(target=reader, args=(i, host, port))
            for i in range(N_READERS)
        ]
        for t in threads:
            t.start()
        for t in threads[1:]:
            t.join(timeout=120.0)
        stop.set()
        threads[0].join(timeout=10.0)
    assert not any(t.is_alive() for t in threads), "storm did not quiesce"
    assert anomalies == []

    server.process_background_work()

    # No lost visits: per-user counts, globally unique visit ids.
    for idx in range(N_WRITERS):
        assert len(system.server.repo.user_visits(f"w{idx}")) \
            == VISITS_PER_WRITER, f"w{idx} lost visits"
    rows = system.server.repo.db.table("visits").select()
    assert len(rows) == N_WRITERS * VISITS_PER_WRITER
    ids = [r["visit_id"] for r in rows]
    assert len(set(ids)) == len(ids), "duplicate visit ids"

    # Every visited page was archived by the crawler.
    visited = {url for idx in range(N_WRITERS) for url in _writer_urls(idx)}
    archived = {r["url"] for r in system.server.repo.db.table("pages").scan()}
    assert visited <= archived

    # No stale profile: what the per-user cache holds after concurrent
    # unlocked builds is what a from-scratch build gives now.
    assert server.themes.taxonomy is not None
    profiles = profile_payloads(server.current_profiles())
    assert profiles == profile_payloads(_reference_current_profiles(server))
    assert any(p["weights"] for p in profiles.values())

    # Deterministic reads: serve each query twice (second hit comes from
    # the cache) and compare against a single-threaded replay.
    replay = _quiesced_replay(pages)
    for request in _search_requests():
        for user in ("w0", "w1", "r0"):
            req = {**request, "user_id": user}
            first = server.registry.dispatch(dict(req))
            second = server.registry.dispatch(dict(req))
            golden = replay.server.registry.dispatch(dict(req))
            canon = lambda r: json.dumps(r, sort_keys=True)  # noqa: E731
            assert canon(first) == canon(second), f"cache tore {req}"
            assert canon(first) == canon(golden), \
                f"concurrent result diverged from replay for {req}"


def test_profile_builds_race_their_writers_and_each_other():
    """``current_profiles`` builds outside the server lock and publishes
    under it: more threads than cores, a 0.1 ms switch interval, writers
    moving engagement stamps while readers rebuild and publish.  A lost
    or overwritten newer entry would leave a profile stale at the end."""
    pages = _pages()
    system = MemexSystem(MemexServer(pages.get))
    server = system.server
    users = [f"w{idx}" for idx in range(N_WRITERS)]
    for idx, user in enumerate(users):
        _record_all(system.register_user(user), idx)
    server.process_background_work()
    assert server.themes.taxonomy is not None
    failures = []

    def ask(user, servlet, **fields):
        response = server.registry.dispatch(
            {"servlet": servlet, "user_id": user, **fields})
        if response.get("status") != "ok":
            failures.append(response)

    def writer(idx):
        for i in range(40 * ITERATIONS):
            url = f"http://p{(idx * 11 + i) % N_PAGES:02d}/"
            ask(users[idx], "visit", url=url, at=100.0 + i)
            if i % 5 == 0:
                ask(users[idx], "bookmark", url=url,
                    folder_path=f"shelf{(idx + i) % 3}", at=100.0 + i)

    def reader(idx):
        for i in range(60 * ITERATIONS):
            if i % 3:
                server.current_profiles()
            else:
                ask(users[(idx + i) % N_WRITERS], "recommend")

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(N_WRITERS)]
    threads += [threading.Thread(target=reader, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "storm did not quiesce"
    assert failures == []
    assert profile_payloads(server.current_profiles()) == \
        profile_payloads(_reference_current_profiles(server))
    system.close()


def test_one_users_folder_writes_race_into_one_new_path():
    """Threads of ONE user bookmark and move pages into the same new
    nested path at once, round after round (the storm above gives each
    thread its own user).  Each edit reads and creates the path's levels
    under the repository lock, so every folder row is created exactly
    once, no request fails on a duplicate key, and no filing is lost."""
    n_threads, rounds = 4, 10 * ITERATIONS
    system = MemexSystem(MemexServer(lambda url: None))
    system.register_user("u")
    server = system.server
    barrier = threading.Barrier(n_threads)
    failures = []

    def writer(idx):
        for i in range(rounds):
            barrier.wait(timeout=60)
            url = f"http://r{i}/{idx}"
            if idx % 2:
                request = {"servlet": "folder_move", "url": url,
                           "to_folder": f"race/{i}/leaf", "at": float(i)}
            else:
                request = {"servlet": "bookmark", "url": url,
                           "folder_path": f"race/{i}/leaf", "at": float(i)}
            response = server.transport.request("u", request)
            if response.get("status") != "ok":
                failures.append(response)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "writers did not finish"
    assert failures == []
    folders = sorted(r["folder_id"] for r in server.repo.user_folders("u"))
    assert folders == sorted(
        {"u:race"} | {f"u:race/{i}" for i in range(rounds)}
        | {f"u:race/{i}/leaf" for i in range(rounds)})
    assert server.repo.stamps.folders == len(folders)
    assert sorted(
        (r["folder_id"], r["url"])
        for r in server.repo.db.table("folder_pages").scan()
    ) == sorted(
        (f"u:race/{i}/leaf", f"http://r{i}/{idx}")
        for i in range(rounds) for idx in range(n_threads))
    system.close()
