"""A cache hit is served as bytes: the shared response and its frames.

The ``search``, ``trails`` and ``related`` caches hold one read-only
:class:`~repro.server.protocol.SharedResponse` per entry, and every hit
returns that object; ``encode_message`` frames it from a JSON body kept
from its second frame on.  What must hold:

* every frame a cache sends — the miss and each hit, over the tunnel and
  over a socket, clear or RC4-keyed — is the frame a server with
  ``caches = None`` sends, and stays so after a write drops the entry;
* through a 2-shard dispatcher, merges build new dicts and leave each
  shard's shared response as it was;
* nothing can write into a shared response, and every copy of it is a
  plain, mutable dict.
"""

import copy
import socket
import sys
import threading

import pytest

from repro.client.applet import MemexApplet, replay_events
from repro.core import MemexSystem
from repro.core.api import corpus_fetcher
from repro.core.memex import MemexServer
from repro.server.netserver import HELLO_KEY
from repro.server.protocol import (
    SharedResponse,
    decode_message,
    encode_message,
)
from repro.server.transport import HttpTunnelTransport, replicate_envelope_failure
from repro.shard.gather import LocalBackend, ShardDispatcher
from repro.webgen import build_workload

from .frame_reference import recv_frame

KEY = b"shared-response-key"
#: Which cache answers each servlet.
CACHE_OF = {
    "search": "search", "trail": "trails",
    "popular_near_trail": "trails", "related_pages": "related",
}


@pytest.fixture(scope="module")
def workload():
    return build_workload(seed=5, num_users=4, days=6.0, pages_per_leaf=5)


def _folder_user(workload, server):
    for profile in workload.profiles:
        if server.repo.user_folders(profile.user_id):
            return profile
    raise AssertionError("no user with folders")


def _requests(workload, server):
    """One request per cached read shape: search in every mode and scope
    at offsets 0 and 10, trail, popular_near_trail and related_pages."""
    profile = _folder_user(workload, server)
    visits = server.repo.user_visits(profile.user_id)
    url = visits[0]["url"]
    words = workload.corpus.pages[url].text.split()
    query = " ".join(words[:2])
    path = sorted(profile.folders)[0]
    reqs = [
        {"servlet": "search", "query": query, "mode": mode, "scope": scope,
         "limit": 10, "offset": offset}
        for mode in ("ranked", "boolean", "hybrid")
        for scope in ("all", "mine", "community")
        for offset in (0, 10)
    ]
    reqs += [
        {"servlet": "trail", "folder_path": path},
        {"servlet": "popular_near_trail", "folder_path": path},
        {"servlet": "related_pages", "url": url},
    ]
    return profile.user_id, reqs


@pytest.fixture(scope="module")
def live(workload):
    system = MemexSystem.from_workload(workload)
    system.replay(workload.events)
    system.server.process_background_work()
    net = system.server.listen(workers=8)
    yield system, net
    net.close(drain=False)
    system.close()


class TunnelWire:
    """Raw response frames from the in-process tunnel."""

    def __init__(self, server):
        self.tunnel = server.transport

    def frame(self, user, payload):
        key = self.tunnel.key_for(user)
        wire = encode_message({**payload, "user_id": user}, key=key)
        return self.tunnel._serve(wire, user)

    def close(self):
        pass


class SocketWire:
    """Raw response frames over one TCP connection, bound to one user by
    a hello (which gets no reply)."""

    def __init__(self, net, user, key):
        self.key = key
        self.sock = socket.create_connection(net.address, timeout=30.0)
        self.sock.sendall(encode_message({HELLO_KEY: user}))

    def frame(self, user, payload):
        self.sock.sendall(
            encode_message({**payload, "user_id": user}, key=self.key))
        return recv_frame(self.sock.recv)

    def close(self):
        self.sock.close()


def _uncached(server, send):
    saved, server.caches = server.caches, None
    try:
        return send()
    finally:
        server.caches = saved


def _counts(server, servlet):
    stats = getattr(server.caches, CACHE_OF[servlet]).stats()
    return stats["hits"], stats["misses"]


def _missed(req):
    """``(hits, misses)`` the first frame of *req* adds to its cache.  The
    search cache holds pages and the ranking they share: a query's first
    page misses both, a later page hits the ranking and misses itself."""
    if req["servlet"] != "search":
        return 0, 1
    return (0, 2) if req["offset"] == 0 else (1, 1)


@pytest.mark.parametrize("keyed", [False, True], ids=["clear", "rc4"])
@pytest.mark.parametrize("over", ["tunnel", "socket"])
def test_every_cached_frame_is_the_uncached_frame(live, workload, over, keyed):
    system, net = live
    server = system.server
    user, reqs = _requests(workload, server)
    key = KEY if keyed else None
    server.transport.set_key(user, key)
    wire = TunnelWire(server) if over == "tunnel" else SocketWire(net, user, key)
    try:
        server.caches.clear()
        for req in reqs:
            reference = _uncached(server, lambda: wire.frame(user, req))
            assert decode_message(reference, key=key)["status"] == "ok"
            hits, misses = _counts(server, req["servlet"])
            frames = [wire.frame(user, req) for _ in range(4)]
            assert frames == [reference] * 4, req
            first_hits, first_misses = _missed(req)
            assert _counts(server, req["servlet"]) == (
                hits + 3 + first_hits, misses + first_misses), req

        # A write that moves every cache's validity: a new page is
        # visited, crawled, indexed and embedded.
        visited = {v["url"] for v in server.repo.db.table("visits").scan()}
        fresh = next(u for u in sorted(workload.corpus.pages) if u not in visited)
        system.connect(user).record_visit(fresh, at=server.now + 3600.0)
        server.process_background_work()
        for req in reqs:
            reference = _uncached(server, lambda: wire.frame(user, req))
            hits, misses = _counts(server, req["servlet"])
            assert wire.frame(user, req) == reference, req
            first_hits, first_misses = _missed(req)
            assert _counts(server, req["servlet"]) == (
                hits + first_hits, misses + first_misses), req
            assert wire.frame(user, req) == reference, req
    finally:
        wire.close()
        server.transport.set_key(user, None)


# -- the 2-shard dispatcher ------------------------------------------------------


class SnapshotBackend(LocalBackend):
    """Keeps every response a shard returned, with a deep copy taken as it
    left the shard."""

    def __init__(self, registry, seen):
        super().__init__(registry)
        self.seen = seen

    def request(self, user_id, payload):
        response = super().request(user_id, payload)
        self.seen.append((response, copy.deepcopy(response)))
        return response


@pytest.fixture(scope="module")
def two_shards(workload):
    fetch = corpus_fetcher(workload.corpus)
    servers = [MemexServer(fetch) for _ in range(2)]
    seen = []
    dispatcher = ShardDispatcher(
        [SnapshotBackend(server.registry, seen) for server in servers])
    tunnel = HttpTunnelTransport(servers[0].registry, dispatcher=dispatcher)
    for profile in workload.profiles:
        tunnel.request(profile.user_id, {
            "servlet": "register_user", "community": workload.name,
            "archive_mode": "community"})
    replay_events(
        workload.events, lambda user: MemexApplet(tunnel, user),
        batch_size=32, tick_every=100,
        on_tick=lambda: [server.tick() for server in servers])
    for server in servers:
        server.process_background_work()
    yield servers, dispatcher, seen
    dispatcher.close()
    for server in servers:
        server.close()


def test_two_shard_merges_never_write_into_a_shared_response(two_shards, workload):
    servers, dispatcher, seen = two_shards
    user, reqs = _requests(workload, servers[0])
    for req in reqs:
        request = {**req, "user_id": user}
        saved = [server.caches for server in servers]
        for server in servers:
            server.caches = None
        try:
            reference = encode_message(dispatcher.dispatch(dict(request)))
        finally:
            for server, caches in zip(servers, saved):
                server.caches = caches
        for server in servers:
            server.caches.clear()
        for _ in range(3):
            del seen[:]
            answer = dispatcher.dispatch(dict(request))
            assert answer["status"] == "ok", (req, answer)
            assert encode_message(answer) == reference, req
            shared = [r for r, _ in seen if isinstance(r, SharedResponse)]
            assert shared, req
            if "shards" in answer:
                # A merge: a dict of its own, not one of the shards'.
                assert type(answer) is dict
                assert all(answer is not r for r in shared)
            else:
                assert answer is shared[0]
            for response, snapshot in seen:
                assert response == snapshot, req


# -- the shared response itself --------------------------------------------------


def _a_search(workload, server):
    user, reqs = _requests(workload, server)
    return user, reqs[0]


def test_a_shared_response_refuses_every_write():
    r = SharedResponse({"hits": [{"url": "u"}], "total": 1})
    assert r["status"] == "ok" and list(r) == ["hits", "total", "status"]
    writes = [
        lambda: r.__setitem__("total", 2),
        lambda: r.__delitem__("total"),
        lambda: r.update(total=2),
        lambda: r.pop("total"),
        lambda: r.popitem(),
        lambda: r.setdefault("extra", 1),
        lambda: r.clear(),
    ]
    for write in writes:
        with pytest.raises(TypeError):
            write()
    with pytest.raises(TypeError):
        r |= {"total": 2}
    assert r == {"hits": [{"url": "u"}], "total": 1, "status": "ok"}
    assert SharedResponse({"status": "error"})["status"] == "error"


def test_every_copy_of_a_shared_response_is_a_plain_mutable_dict():
    r = SharedResponse({"hits": [{"url": "u"}], "total": 1})
    for copied in (dict(r), copy.copy(r), copy.deepcopy(r), r.copy()):
        assert type(copied) is dict and copied == r
        copied["total"] = 2
    deep = copy.deepcopy(r)
    deep["hits"][0]["url"] = "v"
    assert r["hits"][0]["url"] == "u"
    slots = replicate_envelope_failure(r, 3)
    assert all(type(s) is dict and s == r for s in slots)
    slots[0]["hits"].append({"url": "w"})
    assert slots[1] == r and len(r["hits"]) == 1


def test_a_body_is_kept_from_the_second_frame_on(live, workload):
    system, _ = live
    server = system.server
    user, req = _a_search(workload, server)
    server.caches.clear()
    request = {**req, "user_id": user}
    first = server.registry.dispatch(dict(request))
    assert isinstance(first, SharedResponse)
    assert server.registry.dispatch(dict(request)) is first   # a hit
    frame = encode_message(first)
    assert first._body is None        # framed once: the miss keeps nothing
    assert encode_message(first) == frame
    assert first._body == frame[5:]   # framed twice: the body is kept
    assert encode_message(first) == frame
    assert encode_message(first, key=KEY) == encode_message(dict(first), key=KEY)


def test_concurrent_first_hits_frame_identically(live, workload):
    """Eight connections race on one fresh entry: whoever computes it,
    frames it first or keeps its body, every frame is the same."""
    system, net = live
    server = system.server
    user, req = _a_search(workload, server)
    reference = _uncached(server, lambda: TunnelWire(server).frame(user, req))
    server.caches.clear()
    wires = [SocketWire(net, user, None) for _ in range(8)]
    start = threading.Barrier(len(wires))
    frames = [[] for _ in wires]

    def take(i):
        start.wait()
        for _ in range(3):
            frames[i].append(wires[i].frame(user, req))

    threads = [threading.Thread(target=take, args=(i,)) for i in range(len(wires))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for wire in wires:
            wire.close()
    assert not any(thread.is_alive() for thread in threads)
    assert [len(f) for f in frames] == [3] * len(wires)
    assert all(frame == reference for got in frames for frame in got)


def test_concurrent_pages_of_one_fresh_query_frame_identically(live, workload):
    """Eight connections race on offsets 0, 10 and 20 of one query no cache
    holds: whichever page ranks first, and whichever reuses its ranking,
    every frame is the frame the uncached server sends."""
    system, net = live
    server = system.server
    user, req = _a_search(workload, server)
    pages = [{**req, "mode": "hybrid", "scope": "community", "offset": offset}
             for offset in (0, 10, 20)]
    references = [
        _uncached(server, lambda page=page: TunnelWire(server).frame(user, page))
        for page in pages
    ]
    assert decode_message(references[1])["hits"]     # page 10 is not empty
    server.caches.clear()
    wires = [SocketWire(net, user, None) for _ in range(8)]
    start = threading.Barrier(len(wires))
    frames = [[] for _ in wires]

    def take(i):
        start.wait()
        for j in range(len(pages)):
            page = (i + j) % len(pages)       # each client starts elsewhere
            frames[i].append((page, wires[i].frame(user, pages[page])))

    threads = [threading.Thread(target=take, args=(i,)) for i in range(len(wires))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for wire in wires:
            wire.close()
    assert not any(thread.is_alive() for thread in threads)
    assert [len(f) for f in frames] == [len(pages)] * len(wires)
    assert all(frame == references[page] for got in frames for page, frame in got)
