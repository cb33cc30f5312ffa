"""The servlet table is the one declaration: what is registered, how each
request is authenticated and routed, and what a cluster merges with.

Three checks a new servlet cannot slip past: (i) rows == registrations
and every row that can scatter has a merger; (ii) on a seeded archive one
valid request per row answers the same through ``server.transport`` (the
one-shard dispatcher) as through the registry; (iii) through an
in-process 2-shard dispatcher the backends each request reaches are the
ones its row's ``routing`` names.  (iii) is the enumerable seed of the
sharded ≡ single-process oracle (ROADMAP item 4).
"""

import json
import subprocess
import sys

import pytest

from repro.client.applet import MemexApplet, replay_events
from repro.core import MemexSystem
from repro.core.api import corpus_fetcher
from repro.core.memex import MemexServer
from repro.core.servlet_table import BROADCAST, OWNER, SCATTER, SERVLETS
from repro.server.protocol import decode_message, encode_message
from repro.server.transport import HttpTunnelTransport
from repro.shard.gather import SCATTER_REWRITERS, LocalBackend, ShardDispatcher
from repro.webgen import build_workload

URL = "http://members.ai2.edu/page2.html"
FOLDER = "compilers"
#: One valid request per row (``user_id`` is added by the sender).
REQUESTS = {
    "register_user": {"community": "c", "at": 1.0},
    "set_archive_mode": {"mode": "community"},
    "visit": {"url": URL, "at": 9e6},
    "import_history": {"entries": [{"url": URL, "at": 9e6 + 1}]},
    "bookmark": {"url": URL, "folder_path": "New/Sub", "at": 9e6 + 2},
    "folder_create": {"path": "Made", "at": 9e6 + 3},
    "folder_move": {"url": URL, "to_folder": "Moved", "at": 9e6 + 4},
    "folders_get": {},
    "search": {"query": "compiler", "scope": "mine"},
    "recall": {"query": "compiler", "around_days_ago": 2},
    "trail": {"folder_path": FOLDER},
    "context": {"folder_path": FOLDER},
    "bill": {"days": 30},
    "propose_hierarchy": {"folder_path": FOLDER},
    "apply_hierarchy": {"folder_path": FOLDER, "at": 9e6 + 5, "proposal": {
        "name": "Proposed organization", "urls": [], "children": []}},
    "related_pages": {"url": URL},
    "themes_get": {},
    "resources": {"query": "compiler"},
    "profile_similar": {},
    "interest_mates": {"query": "compiler"},
    "recommend": {},
    "popular_near_trail": {"folder_path": FOLDER},
    "stats": {},
    "health": {},
    "metrics_pull": {},
}
#: Compared on keys only: their values are timings and counters of the
#: requests that came before.
OBSERVABILITY = {"stats", "health", "metrics_pull"}
TAKES_K = ("search", "recall", "related_pages", "resources", "profile_similar",
           "interest_mates", "recommend", "popular_near_trail")
#: The list each ``TAKES_K`` row answers with.
ROWS = {"search": "hits", "recall": "hits", "related_pages": "related",
        "resources": "resources", "profile_similar": "users",
        "interest_mates": "users", "recommend": "pages",
        "popular_near_trail": "pages"}


@pytest.fixture(scope="module")
def workload():
    return build_workload(seed=5, num_users=4, days=6.0, pages_per_leaf=5)


def _seeded(workload):
    system = MemexSystem.from_workload(workload)
    system.replay(workload.events)
    return system


class RecordingBackend(LocalBackend):
    def __init__(self, registry, shard, log):
        super().__init__(registry)
        self.shard, self.log = shard, log

    def request(self, user_id, payload):
        self.log.append((self.shard, payload))
        return super().request(user_id, payload)


@pytest.fixture(scope="module")
def seeded_pair(workload):
    """The workload replayed into one server, and into two servers behind
    an in-process dispatcher; yields a transport onto each."""
    with _seeded(workload) as one:
        fetch = corpus_fetcher(workload.corpus)
        servers = [MemexServer(fetch) for _ in range(2)]
        dispatcher = ShardDispatcher(
            [LocalBackend(server.registry) for server in servers])
        two = HttpTunnelTransport(servers[0].registry, dispatcher=dispatcher)
        for profile in workload.profiles:
            two.request(profile.user_id, {
                "servlet": "register_user", "community": workload.name,
                "archive_mode": "community"})
        replay_events(
            workload.events, lambda user: MemexApplet(two, user),
            batch_size=32, tick_every=100,
            on_tick=lambda: [server.tick() for server in servers])
        for server in servers:
            server.process_background_work()
        yield one.server.transport, two
        dispatcher.close()
        for server in servers:
            server.close()


@pytest.fixture()
def cluster():
    """Two empty servers behind one dispatcher, one user registered."""
    servers = [MemexServer(lambda url: None) for _ in range(2)]
    log = []
    dispatcher = ShardDispatcher([
        RecordingBackend(server.registry, shard, log)
        for shard, server in enumerate(servers)
    ])
    created = dispatcher.dispatch({"servlet": "register_user", "user_id": "ann"})
    assert created["status"] == "ok" and created["created"] is True
    del log[:]
    yield dispatcher, log
    dispatcher.close()
    for server in servers:
        server.close()


# -- (i) declared once ----------------------------------------------------------

def test_every_row_is_registered_and_every_registration_has_a_row():
    assert sorted(REQUESTS) == sorted(SERVLETS)     # this file keeps up too
    with MemexServer(lambda url: None) as server:
        assert server.registry.names() == sorted(SERVLETS)
        for name, row in SERVLETS.items():
            assert row.name == name
            batched = name in server.registry._batch_handlers
            assert batched == (row.batch is not None), name


def test_every_row_that_can_scatter_has_a_merger():
    for name, row in SERVLETS.items():
        routings = (
            {row.routing(r) for r in ({}, {"mode": "hybrid"}, {"mode": "ranked"})}
            if callable(row.routing) else {row.routing}
        )
        assert routings <= {OWNER, BROADCAST, SCATTER}, name
        if SCATTER in routings:
            assert row.merge is not None, name
        else:
            assert row.rewrite is None, name
    assert SCATTER_REWRITERS == {
        name: row.rewrite for name, row in SERVLETS.items() if row.rewrite}


@pytest.mark.parametrize("module", [
    "repro.shard.gather", "repro.core.memex", "repro.server.servlets",
    "repro.core.servlet_table", "repro.shard.merge",
])
def test_each_module_on_the_table_edge_imports_first(module):
    """The table sits between ``core.memex`` and ``shard.gather``; each
    of them must import in a fresh interpreter."""
    subprocess.run(
        [sys.executable, "-c", f"import {module}"], check=True, timeout=60,
        env={"PYTHONPATH": ":".join(sys.path)},
    )


# -- (ii) one shard is the identity -------------------------------------------------

def test_transport_answers_what_the_registry_answers(workload):
    """Two identically seeded servers (writes are not repeatable on one):
    one asked through its transport, one through its registry."""
    with _seeded(workload) as wired, _seeded(workload) as direct:
        user = workload.profiles[0].user_id
        folders = direct.server.registry.dispatch(
            {"servlet": "folders_get", "user_id": user})["folders"]
        assert FOLDER in {f["path"] for f in folders}
        for name, fields in REQUESTS.items():
            sender = "newcomer" if name == "register_user" else user
            through = wired.server.transport.request(
                sender, {"servlet": name, **fields})
            straight = json.loads(json.dumps(direct.server.registry.dispatch(
                {"servlet": name, "user_id": sender, **fields})))
            assert through["status"] == "ok", (name, through)
            if name in OBSERVABILITY:
                assert sorted(through) == sorted(straight), name
            else:
                assert through == straight, name


# -- (iii) each routing class reaches the backends it names ---------------------------

def _reached(dispatcher, log, name, **fields):
    del log[:]
    response = dispatcher.dispatch({"servlet": name, "user_id": "ann", **fields})
    return response, [shard for shard, _ in log]


@pytest.mark.parametrize("name", sorted(SERVLETS))
def test_a_request_reaches_the_backends_its_routing_names(cluster, name):
    dispatcher, log = cluster
    owner = dispatcher.shard_for("ann")
    row = SERVLETS[name]
    fields = REQUESTS[name]
    response, reached = _reached(dispatcher, log, name, **fields)
    assert response["status"] == "ok", response
    routing = row.route(fields)
    if routing == OWNER:
        assert reached == [owner]
        assert "shards" not in response
    elif routing == BROADCAST:
        assert reached == [owner, 1 - owner]        # owner first
        assert response["shards"] == 2 and "partial" not in response
    else:
        assert sorted(reached) == [0, 1]
        assert response["shards"] == 2 and response["partial"] is False


def test_search_routes_by_mode_and_ships_the_declared_sub_request(cluster):
    dispatcher, log = cluster
    owner = dispatcher.shard_for("ann")
    for mode in ("ranked", "boolean"):
        response, reached = _reached(
            dispatcher, log, "search", query="q", mode=mode, scope="community")
        assert reached == [owner] and "shards" not in response
    response, reached = _reached(
        dispatcher, log, "search", query="q", mode="hybrid", limit=3, offset=1)
    assert sorted(reached) == [0, 1] and response["shards"] == 2
    assert response["offset"] == 1
    for _shard, sent in log:
        assert (sent["offset"], sent["limit"]) == (0, 1_000_000)


def test_a_name_with_no_row_is_answered_by_the_owner_shard(cluster):
    dispatcher, log = cluster
    response, reached = _reached(dispatcher, log, "no_such_servlet")
    assert reached == [dispatcher.shard_for("ann")]
    assert response["error_code"] == "unknown_servlet"


def test_a_mixed_envelope_routes_each_item_by_its_row(cluster):
    dispatcher, log = cluster
    owner = dispatcher.shard_for("ann")
    envelope = {"servlet": "batch", "user_id": "ann", "requests": [
        {"servlet": "visit", "url": URL, "at": 1.0},
        {"servlet": "themes_get"},
        {"servlet": "visit", "url": URL, "at": 2.0},
    ]}
    del log[:]
    out = dispatcher.dispatch(envelope)
    assert [r["status"] for r in out["responses"]] == ["ok"] * 3
    assert out["responses"][1]["shards"] == 2
    assert sorted(s for s, p in log if p["servlet"] == "themes_get") == [0, 1]
    assert [s for s, p in log if p["servlet"] == "batch"] == [owner, owner]


# -- k: one parser, handler and merger agree ------------------------------------------

@pytest.mark.parametrize("bad_k", [-1, "many", 2.5, True, 1.9, float("inf")])
@pytest.mark.parametrize("name", TAKES_K)
def test_a_bad_k_is_a_bad_request_on_one_server_and_on_two(cluster, name, bad_k):
    """``[:k]`` with ``k=-1`` used to drop the last row while the cluster
    merger read it as "no limit"; ``int()`` truncated ``k=2.5`` to two
    rows and ``k=True`` to one."""
    fields = {**REQUESTS[name], "k": bad_k}
    with MemexServer(lambda url: None) as server:
        server.registry.dispatch({"servlet": "register_user", "user_id": "ann"})
        alone = server.transport.request("ann", {"servlet": name, **fields})
    dispatcher, log = cluster
    if name == "search":
        fields["mode"] = "hybrid"       # the search that has a merger
    sharded, reached = _reached(dispatcher, log, name, **fields)
    for response in (alone, sharded):
        assert response["status"] == "error", (name, response)
        assert response["error_code"] == "bad_request", (name, response)
    if SERVLETS[name].route(fields) == SCATTER:
        assert reached == []            # refused at the router, no fan-out


def _alone(name, fields):
    """*fields* sent to *name* on one fresh server that knows ``ann``."""
    with MemexServer(lambda url: None) as server:
        server.registry.dispatch({"servlet": "register_user", "user_id": "ann"})
        return server.transport.request("ann", {"servlet": name, **fields})


@pytest.mark.parametrize("bad", [2.5, True, 1.9])
@pytest.mark.parametrize("field", ["limit", "offset"])
def test_a_non_integer_search_window_is_a_bad_request_on_one_server_and_on_two(
    cluster, field, bad,
):
    """``int()`` truncated: ``offset=1.9`` served offset 1 and
    ``limit=True`` one row."""
    fields = {**REQUESTS["search"], field: bad}
    alone = _alone("search", fields)
    dispatcher, log = cluster
    sharded, reached = _reached(
        dispatcher, log, "search", **{**fields, "mode": "hybrid"})
    for response in (alone, sharded):
        assert response["status"] == "error", response
        assert response["error_code"] == "bad_request", response
    assert reached == []


@pytest.mark.parametrize("bad", [2.5, True, -1, "many"])
@pytest.mark.parametrize("name, field", [
    ("popular_near_trail", "hops"),
    ("propose_hierarchy", "min_cluster"),
    ("propose_hierarchy", "max_depth"),
    ("stats", "log_limit"),
    ("visit", "session_id"),
])
def test_every_other_count_field_is_a_bad_request_on_one_server_and_on_two(
    cluster, name, field, bad,
):
    """Every count a servlet reads goes through ``count_field``, like
    ``k``: ``int()`` would serve ``hops=2.5`` as 2, ``log_limit=-1`` as
    all but the first record and store ``session_id=True`` as 1."""
    fields = {**REQUESTS[name], field: bad, "include_logs": True}
    alone = _alone(name, fields)
    dispatcher, log = cluster
    sharded, _ = _reached(dispatcher, log, name, **fields)
    for response in (alone, sharded):
        assert response["status"] == "error", response
        assert response["error_code"] == "bad_request", response


#: Every string field a ``REQUESTS`` row carries.
TEXT_FIELDS = [
    (name, field) for name, fields in REQUESTS.items()
    for field, value in fields.items() if isinstance(value, str)]
#: Fields whose ``null`` means "use the default".
NULLABLE = {("register_user", "community")}
#: Every number field a row reads (``at`` everywhere ``advance`` reads
#: it), and whether it may be negative.
NUMBER_FIELDS = [
    *((name, "at", True) for name, fields in REQUESTS.items() if "at" in fields),
    ("trail", "window_days", False), ("popular_near_trail", "window_days", False),
    ("recall", "around_days_ago", False), ("recall", "tolerance_days", False),
    ("bill", "days", False), ("bill", "monthly_rate", False),
    ("resources", "since_days", False),
]
#: A client's malformed input: a string field sent as a non-string,
#: boolean queries that do not parse, unknown archive modes, user ids
#: that are not strings or hold a ':', and numbers that are booleans, not
#: finite, negative day counts or rates, or too large for a float.
MALFORMED = [
    *((name, {field: bad}) for name, field in TEXT_FIELDS
      for bad in (123, None, True, ["x"], {"a": 1})
      if not (bad is None and (name, field) in NULLABLE)),
    *(("search", {"mode": "boolean", "query": query}) for query in (
        "(", ")", "AND", "NOT", "a AND", "a OR OR b", '"unterminated',
        '"compiler optimization"')),
    ("set_archive_mode", {"mode": ""}),
    ("set_archive_mode", {"mode": "loud"}),
    *(("register_user", {"user_id": bad})
      for bad in (123, None, True, ["x"], {"a": 1}, "a:b")),
    *((name, {field: bad}) for name, field, signed in NUMBER_FIELDS
      for bad in (float("inf"), float("-inf"), float("nan"), True, "x", -1.0)
      if not (bad == -1.0 and signed)),
    ("import_history", {"entries": [
        {"url": URL, "at": 9e6 + 1}, {"url": URL, "at": float("inf")}]}),
    ("bill", {"days": 10 ** 309}),                  # float() overflows
    ("resources", {"since_days": 10 ** 309}),
]


@pytest.mark.parametrize(
    "name, bad", MALFORMED,
    ids=[f"{name}-{json.dumps(bad, sort_keys=True)}" for name, bad in MALFORMED])
def test_malformed_input_is_a_bad_request_on_one_server_and_on_two(
    cluster, name, bad,
):
    """docs/PROTOCOL.md keeps ``internal`` (retryable, with the server's
    traceback) for failures on a well-formed request; a string field sent
    as ``123`` reached the tokenizer, a folder path or the catalog and
    failed there as one."""
    sender = "newcomer" if name == "register_user" else "ann"
    request = {"servlet": name, "user_id": sender, **REQUESTS[name], **bad}
    with MemexServer(lambda url: None) as server:
        server.registry.dispatch({"servlet": "register_user", "user_id": "ann"})
        # The frame as ``transport.request`` encodes it, but with the
        # ``user_id`` of *bad*, which the client side would overwrite.
        alone = decode_message(server.transport._serve(encode_message(request), ""))
        assert server.now == 0.0, "a refused request moved the clock"
    dispatcher, _log = cluster
    sharded = dispatcher.dispatch(request)
    for response in (alone, sharded):
        assert response["status"] == "error", response
        assert response["error_code"] == "bad_request", response
        assert response["retryable"] is False, response


def test_a_colon_in_a_new_user_id_is_refused_so_folder_ids_do_not_collide():
    """A folder id is ``<owner>:<path>``.  With ``a:b`` registered, ``a``
    filing into ``b:c`` wrote ``a:b``'s folder ``c``: ``a:b`` listed a
    URL it never bookmarked and ``a`` listed nothing."""
    with MemexServer(lambda url: None) as server:
        ask = server.transport.request
        assert ask("a", {"servlet": "register_user"})["created"] is True
        refused = ask("a:b", {"servlet": "register_user"})
        assert refused["error_code"] == "bad_request", refused
        ask("a:b", {"servlet": "folder_create", "path": "c"})
        ask("a", {"servlet": "bookmark", "url": "http://y/", "folder_path": "b:c"})
        mine = ask("a", {"servlet": "folders_get"})["folders"]
        assert [(f["path"], [i["url"] for i in f["items"]]) for f in mine] == [
            ("b:c", ["http://y/"])]
        assert ask("a:b", {"servlet": "folders_get"})["error_code"] == "unknown_user"


@pytest.mark.parametrize("shards", [1, 2])
def test_an_infinite_visit_leaves_the_clock_alone(shards):
    """``{"at": Infinity}`` decodes; it moved the shared clock to ``inf``,
    so the next well-formed visit was stored at ``inf`` for every user."""
    servers = [MemexServer(lambda url: None) for _ in range(shards)]
    dispatcher = ShardDispatcher([LocalBackend(s.registry) for s in servers])
    transport = HttpTunnelTransport(servers[0].registry, dispatcher=dispatcher)
    try:
        transport.request("ann", {"servlet": "register_user", "at": 5.0})
        refused = transport.request(
            "ann", {"servlet": "visit", "url": URL, "at": float("inf")})
        assert refused["error_code"] == "bad_request", refused
        assert [server.now for server in servers] == [5.0] * shards
        transport.request("ann", {"servlet": "visit", "url": URL, "at": 20.0})
        owner = servers[dispatcher.shard_for("ann")]
        assert [v["at"] for v in owner.repo.user_visits("ann")] == [20.0]
    finally:
        dispatcher.close()
        for server in servers:
            server.close()


def test_whole_floats_are_still_a_count():
    """A JSON client that writes ``10.0`` still gets ten rows' window."""
    for fields in ({"k": 3.0}, {"limit": 3.0, "offset": 0.0}):
        response = _alone("search", {**REQUESTS["search"], **fields})
        assert response["status"] == "ok", response


def _scattering(name):
    """``REQUESTS[name]``, in hybrid mode for ``search`` (the one that scatters)."""
    return {**REQUESTS[name], "mode": "hybrid"} if name == "search" else REQUESTS[name]


AUTH_SCATTER = sorted(
    name for name, row in SERVLETS.items()
    if row.auth and row.route(_scattering(name)) == SCATTER)


@pytest.mark.parametrize("name", AUTH_SCATTER)
def test_a_scatter_every_shard_refuses_is_the_refusal_not_an_outage(cluster, name):
    """Every shard answered ``unknown_user``; the router used to report a
    retryable ``unavailable``, so a sharded client retried forever."""
    fields = _scattering(name)
    with MemexServer(lambda url: None) as server:
        alone = server.transport.request("nobody", {"servlet": name, **fields})
    dispatcher, _log = cluster
    sharded = dispatcher.dispatch({"servlet": name, "user_id": "nobody", **fields})
    for response in (alone, sharded):
        assert response["error_code"] == "unknown_user", (name, response)
        assert response["retryable"] is False, (name, response)
    assert sharded == alone


def test_auth_is_checked_before_any_request_field():
    with MemexServer(lambda url: None) as server:
        for name, row in SERVLETS.items():
            response = server.registry.dispatch(
                {"servlet": name, "user_id": f"nobody-{name}", "k": -1})
            if row.auth:
                assert response["error_code"] == "unknown_user", name
            else:
                assert response.get("error_code") != "unknown_user", name


@pytest.mark.parametrize("name", TAKES_K)
def test_k_zero_is_empty_on_one_server_and_on_two(seeded_pair, workload, name):
    """``resources`` appended a row before it compared against ``k``, so
    one server answered ``k=0`` with a row while the cluster merger
    answered with none."""
    user = workload.profiles[0].user_id
    for transport in seeded_pair:
        one = transport.request(user, {"servlet": name, **REQUESTS[name], "k": 1})
        assert len(one[ROWS[name]]) == 1, (name, one)   # there is a row to hold back
        zero = transport.request(user, {"servlet": name, **REQUESTS[name], "k": 0})
        assert zero["status"] == "ok", (name, zero)
        assert zero[ROWS[name]] == [], (name, zero)
