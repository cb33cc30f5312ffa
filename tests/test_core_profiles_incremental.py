"""A recommendation costs what changed.

``MemexServer.current_profiles`` keeps one profile per user and rebuilds
the users whose visits or folder contents moved (everyone when the
taxonomy or the idf generation did); ``ThemeTaxonomy`` normalises each
theme centre once; ``recommend`` reads its peers through the indexes.
What is served must equal, float for float, what the stateless bodies in
``profiles_reference`` compute from the stores at that moment — after
every write, not only after the next visit — and the work done must
follow what changed, counted in calls and selects, not in time.
"""

import json
import os
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.applet import replay_events
from repro.core import MemexSystem
from repro.core import memex as memex_module
from repro.core.archive import folder_id, folder_path
from repro.core.community import build_report, consolidate
from repro.core.memex import MemexServer
from repro.core.profiles import PageThemes, build_profile
from repro.core.recommend import match_theme
from repro.errors import EmptyCorpus
from repro.mining.themes import Theme, ThemeDiscovery, ThemeTaxonomy
from repro.server.daemons import FetchedPage
from repro.storage.relational import Table
from repro.storage.repository import FolderEdit, MemexRepository
from repro.storage.schema import ASSOC_BOOKMARK, ASSOC_CORRECTION
from repro.text.vectorize import cosine
from repro.webgen import build_workload

from .profiles_reference import (
    _reference_assign,
    _reference_current_profiles,
    _reference_discovery_scores,
    _reference_interest_mates,
    _reference_leaves,
    _reference_match_theme,
    _reference_profile_similar,
    _reference_recommend,
    profile_payloads as _payloads,
)

QUERIES = ("rock band music", "stock market finance", "cycling race")


def _ask(server, user_id, servlet, **fields):
    response = server.registry.dispatch(
        {"servlet": servlet, "user_id": user_id, **fields})
    assert response.pop("status") == "ok", response
    return response


def _assert_serves_the_reference(server, where=""):
    """Profiles and the three servlets that read them, for every user."""
    served = _payloads(server.current_profiles())
    reference = _reference_current_profiles(server)
    assert served == _payloads(reference), f"profiles differ {where}"
    for user_id in reference:
        assert _ask(server, user_id, "recommend") == _reference_recommend(
            server, reference, user_id), f"recommend({user_id}) {where}"
        assert _ask(server, user_id, "profile_similar", k=3) == \
            _reference_profile_similar(reference, user_id, k=3), \
            f"profile_similar({user_id}) {where}"
        for query, exclude in zip(QUERIES, (None, *QUERIES)):
            assert _ask(
                server, user_id, "interest_mates",
                query=query, exclude_query=exclude,
            ) == _reference_interest_mates(
                server, reference, user_id, query, exclude_query=exclude,
            ), f"interest_mates({user_id}, {query!r}) {where}"


def _bookmarks(server, user_id):
    """This user's deliberate associations, oldest first."""
    rows = [
        row
        for folder in server.repo.user_folders(user_id)
        for row in server.repo.folder_pages(
            folder["folder_id"], sources=(ASSOC_BOOKMARK, ASSOC_CORRECTION))
    ]
    return sorted(rows, key=lambda r: r["assoc_id"])


def _unseen_fetched_pages(server, user_id):
    """Fetched pages the user has neither visited nor filed."""
    mine = {v["url"] for v in server.repo.user_visits(user_id)}
    mine |= {row["url"] for row in _bookmarks(server, user_id)}
    return sorted(
        row["url"] for row in server.repo.db.table("pages").scan()
        if row["fetched"] and row["url"] not in mine
    )


@pytest.fixture(scope="module")
def workload():
    return build_workload(seed=18, num_users=4, days=4, pages_per_leaf=8)


def _replayed(workload):
    system = MemexSystem.from_workload(workload)
    system.replay(workload.events, tick_every=40)
    assert system.server.themes.taxonomy is not None
    return system


@pytest.fixture(scope="module")
def community(workload):
    """Read-only: tests that write build their own with ``_replayed``."""
    with _replayed(workload) as system:
        yield system


# -- the kernel: one normalisation per centre ---------------------------------

def test_assign_is_the_two_cosine_passes_on_every_page(community):
    server = community.server
    taxonomy = server.themes.taxonomy
    vectors = [
        server.vectorizer.tfidf_vector(row["url"])
        for row in server.repo.db.table("pages").scan() if row["fetched"]
    ]
    assert len(vectors) > 100 and len(taxonomy.leaves()) > 1
    for vector in [*vectors, {}]:
        theme, similarity = taxonomy.assign(vector)
        ref_theme, ref_similarity = _reference_assign(taxonomy, vector)
        assert theme is ref_theme
        assert similarity == ref_similarity        # the same float


def test_similarities_are_the_cosines_to_the_leaf_centres(community):
    server = community.server
    taxonomy = server.themes.taxonomy
    for row in server.repo.db.table("pages").scan():
        vector = server.vectorizer.tfidf_vector(row["url"]) or {}
        assert taxonomy.similarities(vector) == [
            cosine(vector, leaf.center) for leaf in taxonomy.leaves()]


def test_assign_breaks_a_tie_by_theme_id_and_an_empty_centre_scores_zero():
    taxonomy = ThemeTaxonomy(roots=[
        Theme("t-a", "a", {1: 2.0, 2: 2.0}, []),
        Theme("t-c", "c", {1: 0.5, 2: 0.5}, []),     # same direction as t-a
        Theme("t-b", "b", {3: 1.0}, []),
        Theme("t-z", "z", {}, []),                   # no centre at all
    ])
    for vector in ({1: 1.0, 2: 1.0}, {1: 3.0}, {9: 1.0}, {}):
        theme, similarity = taxonomy.assign(vector)
        ref_theme, ref_similarity = _reference_assign(taxonomy, vector)
        assert (theme.theme_id, similarity) == (ref_theme.theme_id, ref_similarity)
    assert taxonomy.assign({1: 1.0, 2: 1.0})[0].theme_id == "t-c"
    theme, similarity = taxonomy.assign({})
    assert (theme.theme_id, similarity) == ("t-z", 0.0)
    with pytest.raises(EmptyCorpus):
        ThemeTaxonomy(roots=[]).assign({1: 1.0})


def test_theme_and_leaf_lists_match_the_tree_walk(community):
    taxonomy = community.server.themes.taxonomy
    walked = [t for root in taxonomy.roots for t in root.walk()]
    assert taxonomy.all_themes() == walked
    assert taxonomy.leaves() == _reference_leaves(taxonomy)
    taxonomy.leaves().clear()                       # callers get copies
    assert taxonomy.leaves() == _reference_leaves(taxonomy)


def test_discovery_and_topic_matching_read_the_same_centres(community, workload):
    """``resources`` / ``interest_mates`` / ``themes_get`` inputs: the
    daemon's ranking and the per-query theme match equal the loops that
    re-weighted every page per theme and re-normalised every centre."""
    server = community.server
    taxonomy = server.themes.taxonomy
    server.discovery._computed_for = (-1, -1)       # force a fresh run
    server.discovery.crawler = None                 # ...that enqueues nothing
    assert server.discovery.run_once() > 0
    assert server.discovery.recommendations == _reference_discovery_scores(
        server.discovery, taxonomy)
    topics = sorted({page.topic for page in workload.corpus.pages.values()})
    matched = 0
    for query in [*QUERIES, *topics, "", "zzzunseenword"]:
        theme, similarity = match_theme(server, query)
        ref_theme, ref_similarity = _reference_match_theme(server, query)
        assert (theme, similarity) == (ref_theme, ref_similarity)
        matched += theme is not None
    assert matched > len(QUERIES)
    user_id = next(iter(server.current_profiles()))
    themes = _ask(server, user_id, "themes_get")["themes"]
    assert [t["theme_id"] for t in themes] == [t.theme_id for t in taxonomy.roots]
    for query in QUERIES:
        theme, _ = _reference_match_theme(server, query)
        response = _ask(server, user_id, "resources", query=query)
        assert response["theme"] == (theme.theme_id if theme else None)
        assert [r["url"] for r in response["resources"]] == [
            r.url for r in _reference_discovery_scores(
                server.discovery, taxonomy)[theme.theme_id]]


# -- stale profiles: three defects, one test each -----------------------------

def _file_an_unseen_page(system, user_id):
    server = system.server
    folder_id = min(f["folder_id"] for f in server.repo.user_folders(user_id))
    system.connect(user_id).bookmark(
        _unseen_fetched_pages(server, user_id)[0],
        folder_path(folder_id), at=server.now + 1.0)


def _move_a_bookmark(system, user_id):
    row = _bookmarks(system.server, user_id)[0]
    system.connect(user_id).move_bookmark(
        row["url"], None, "Elsewhere", at=system.server.now + 1.0)


def _dissociate_a_bookmark(system, user_id):
    server = system.server
    visited = {v["url"] for v in server.repo.user_visits(user_id)}
    row = next(r for r in _bookmarks(server, user_id) if r["url"] in visited)
    with server.repo.edit(server.now) as edit:
        assert edit.unfile(row["folder_id"], row["url"]) >= 1


def _apply_a_hierarchy(system, user_id):
    server = system.server
    applet = system.connect(user_id)
    # Filed twice, so the move (every row out, one correction in) changes
    # how strongly the page counts and not only which folder holds it.
    urls = _unseen_fetched_pages(server, user_id)[:3]
    for url in urls + urls:
        applet.bookmark(url, "Inbox", at=server.now + 1.0)
    server.current_profiles()
    proposal = {"name": "Inbox", "urls": [], "children": [
        {"name": "Sorted", "urls": urls, "children": []}]}
    assert applet.apply_organization("Inbox", proposal, at=server.now + 1.0) == 3


@pytest.mark.parametrize("write", [
    _file_an_unseen_page, _move_a_bookmark, _dissociate_a_bookmark,
    _apply_a_hierarchy,
])
def test_a_folder_write_with_no_new_visit_reaches_the_profile(workload, write):
    with _replayed(workload) as system:
        server = system.server
        user_id = workload.profiles[0].user_id
        before = server.current_profiles()[user_id].pages
        visits = len(server.repo.db.table("visits"))
        write(system, user_id)
        assert len(server.repo.db.table("visits")) == visits
        served = server.current_profiles()
        if write is _file_an_unseen_page:       # the issue's reproduction
            assert served[user_id].pages == before + 1
        fresh = build_profile(server.repo, PageThemes(
            server.vectorizer, server.themes.taxonomy,
            server.vectorizer.num_docs), user_id)
        assert served[user_id].to_payload() == fresh.to_payload()
        assert _payloads(served) == _payloads(_reference_current_profiles(server))


def test_a_newly_vectorised_page_moves_every_profile(workload):
    """idf weights belong to the vocabulary's document count: a page that
    enters it changes every tf-idf vector, with no visit, no bookmark and
    no taxonomy rebuild to announce it."""
    with _replayed(workload) as system:
        server = system.server
        before = _payloads(server.current_profiles())
        taxonomy, num_docs = server.themes.taxonomy, server.vectorizer.vocab.num_docs
        unfetched = sorted(
            row["url"] for row in server.repo.db.table("pages").scan()
            if not row["fetched"] and server.crawler.fetch(row["url"]) is not None
        )[:5]
        for url in unfetched:
            server.crawler.enqueue(url)
        server.crawler.run_once()
        server.indexer.run_once()
        assert server.vectorizer.vocab.num_docs > num_docs
        assert server.themes.taxonomy is taxonomy
        served = _payloads(server.current_profiles())
        assert served == _payloads(_reference_current_profiles(server))
        assert served != before


class _SwapsWhileBeingRead:
    """A ``ThemeDaemon`` stand-in whose taxonomy is replaced right after
    the first read of it — the window between ``current_profiles``
    reading the taxonomy and reading anything else about it."""

    def __init__(self, first, second):
        self._first, self._second = first, second
        self.rebuild_count = 1

    @property
    def taxonomy(self):
        if self._first is not None:
            first, self._first = self._first, None
            self.rebuild_count += 1
            return first
        return self._second


def test_a_taxonomy_swapped_mid_read_is_not_cached_as_the_new_one(workload):
    with _replayed(workload) as system:
        server = system.server
        first = server.themes.taxonomy
        second = ThemeDiscovery(cohesion_threshold=0.99, min_split_folders=2) \
            .discover(server.themes.folder_documents(), server.vectorizer.vocab)
        assert len(second.leaves()) != len(first.leaves())
        server.themes = _SwapsWhileBeingRead(first, second)
        server.current_profiles()                   # reads `first`, then swapped
        assert server.themes.taxonomy is second
        served = _payloads(server.current_profiles())
        assert served == _payloads(_reference_current_profiles(server))


def test_recommend_scores_against_the_taxonomy_its_profiles_came_from(workload):
    """``recommend`` used to read ``themes.taxonomy`` a second time after
    ``current_profiles()``: a swap in between scored the new theme ids
    against profiles weighted by the old ones."""
    with _replayed(workload) as system:
        server = system.server
        first = server.themes.taxonomy
        second = ThemeDiscovery(cohesion_threshold=0.99, min_split_folders=2) \
            .discover(server.themes.folder_documents(), server.vectorizer.vocab)
        reference = _reference_current_profiles(server)
        expected = {
            user_id: _reference_recommend(server, reference, user_id)
            for user_id in reference
        }
        assert any(answer["pages"] for answer in expected.values())
        for user_id, answer in expected.items():
            server.themes = _SwapsWhileBeingRead(first, second)
            assert _ask(server, user_id, "recommend") == answer, user_id


def test_consolidate_reports_the_taxonomy_its_profiles_came_from(workload):
    """``consolidate`` read ``themes.taxonomy`` and then
    ``current_profiles()``, which read it again: a swap in between
    reported one taxonomy's themes beside user fits from the other."""
    with _replayed(workload) as system:
        server = system.server
        first = server.themes.taxonomy
        second = ThemeDiscovery(cohesion_threshold=0.99, min_split_folders=2) \
            .discover(server.themes.folder_documents(), server.vectorizer.vocab)
        expected = build_report(first, _reference_current_profiles(server))
        on_second = SimpleNamespace(
            themes=SimpleNamespace(taxonomy=second),
            repo=server.repo, vectorizer=server.vectorizer)
        assert expected.user_fit != build_report(
            second, _reference_current_profiles(on_second)).user_fit
        server.themes = _SwapsWhileBeingRead(first, second)
        report = consolidate(server)
        assert [t.theme_id for t in report.themes] == \
            [t.theme_id for t in expected.themes]
        assert report.user_fit == expected.user_fit


# -- the page-theme memo: one assignment per page per generation -------------

def _count_assigns(monkeypatch):
    assigned = []
    real = ThemeTaxonomy.assign

    def counting(self, vector):
        assigned.append(self)
        return real(self, vector)

    monkeypatch.setattr(ThemeTaxonomy, "assign", counting)
    return assigned


def _crawl_unvisited_page(server):
    """Fetch and index one page nobody visited: the vocabulary gains a
    document, so every idf weight moves and nothing else does."""
    url = next(
        row["url"] for row in server.repo.db.table("pages").scan()
        if not row["fetched"] and server.crawler.fetch(row["url"]) is not None
    )
    num_docs = server.vectorizer.vocab.num_docs
    server.crawler.enqueue(url)
    server.crawler.run_once()
    server.indexer.run_once()
    assert server.vectorizer.vocab.num_docs > num_docs


def _assign_through_the_memo_again(workload, move, monkeypatch):
    """Recommend, *move*, recommend: both answers the from-scratch
    reference, and the second assigned pages afresh."""
    with _replayed(workload) as system:
        server = system.server
        _assert_serves_the_reference(server, "before")
        before = _payloads(server.current_profiles())
        assigned = _count_assigns(monkeypatch)
        move(server)
        _assert_serves_the_reference(server, "after")
        assert _payloads(server.current_profiles()) != before
        assert assigned, "the second recommend assigned no page afresh"


def test_a_page_entering_the_vocabulary_between_recommends(workload, monkeypatch):
    _assign_through_the_memo_again(workload, _crawl_unvisited_page, monkeypatch)


def test_a_taxonomy_swapped_in_between_recommends(workload, monkeypatch):
    def swap(server):
        server.themes.taxonomy = ThemeDiscovery(
            cohesion_threshold=0.99, min_split_folders=2,
        ).discover(server.themes.folder_documents(), server.vectorizer.vocab)

    _assign_through_the_memo_again(workload, swap, monkeypatch)


def test_one_users_visit_assigns_only_what_it_added(workload, monkeypatch):
    """A visit moves its user's stamp alone: that profile is rebuilt, and
    every page already assigned at this generation is looked up — only
    the page the visit added is assigned."""
    with _replayed(workload) as system:
        server = system.server
        users = [p.user_id for p in workload.profiles]
        url = _unseen_fetched_pages(server, users[1])[0]
        assert server.vectorizer.vector(url) is not None
        _assert_serves_the_reference(server, "before")
        built = _count_builds(monkeypatch)
        assigned = _count_assigns(monkeypatch)
        for user_id in users:
            _ask(server, user_id, "recommend")
        assert built == [] and assigned == []
        _ask(server, users[1], "visit", url=url, at=server.now + 1.0)
        _ask(server, users[0], "recommend")
        assert built == [users[1]]
        assert len(assigned) <= 1       # the new page, unless a peer had it
        monkeypatch.undo()
        _assert_serves_the_reference(server, "after the visit")


def test_a_planted_memo_that_ignores_num_docs_is_caught(workload, monkeypatch):
    _memo_ignores_num_docs(monkeypatch)
    with pytest.raises(AssertionError, match="differ|recommend|similar|mates"):
        with _replayed(workload) as system:
            _assert_serves_the_reference(system.server, "before")
            _crawl_unvisited_page(system.server)
            _assert_serves_the_reference(system.server, "after")


def test_an_assignment_straddling_a_new_document_is_not_kept(community):
    server = community.server
    url = next(
        row["url"] for row in server.repo.db.table("pages").scan()
        if row["fetched"]
    )
    num_docs = server.vectorizer.num_docs
    themes = PageThemes(server.vectorizer, server.themes.taxonomy, num_docs)
    stale = PageThemes(server.vectorizer, server.themes.taxonomy, num_docs - 1)
    assert stale.assign(url) == themes.assign(url)
    assert url in themes._assigned and url not in stale._assigned
    assert themes.assign("http://never.fetched/") is None
    assert "http://never.fetched/" not in themes._assigned


#: Writer steps of the concurrent memo test (the CI stress job raises it).
MEMO_STORM_STEPS = 4 * int(os.environ.get("MEMEX_STRESS_ITERS", "2"))


def test_concurrent_recommends_each_read_one_generation(workload):
    """Four threads ask ``recommend`` and ``profile_similar`` while a
    fifth counts fresh pages into the vocabulary (moving ``num_docs``)
    and swaps the taxonomy, one step at a time.  Every answer must equal
    the from-scratch reference of a state its request could have read:
    a memo entry kept under the wrong generation, or torn by a document
    counted in mid-assignment, would answer something no state gives.

    The writer takes its next step only after every reader has finished
    a request that began after the last one, so no request spans more
    than one step."""
    with _replayed(workload) as system:
        server = system.server
        users = [p.user_id for p in workload.profiles]
        for row in server.repo.db.table("pages").scan():
            if row["fetched"]:
                server.vectorizer.vector(row["url"])
        # Fetched, so their text is stored, but not yet counted in.
        fresh = sorted(
            row["url"] for row in server.repo.db.table("pages").scan()
            if not row["fetched"] and server.crawler.fetch(row["url"]) is not None
        )[:MEMO_STORM_STEPS]
        assert len(fresh) * 2 >= MEMO_STORM_STEPS
        for url in fresh:
            server.crawler.enqueue(url)
        server.crawler.run_once()
        taxonomies = [server.themes.taxonomy, ThemeDiscovery(
            cohesion_threshold=0.99, min_split_folders=2,
        ).discover(server.themes.folder_documents(), server.vectorizer.vocab)]

        def canon(response):
            return json.dumps(response, sort_keys=True)

        def reference():
            profiles = _reference_current_profiles(server)
            return {
                **{(u, "recommend"): canon(_reference_recommend(
                    server, profiles, u)) for u in users},
                **{(u, "profile_similar"): canon(_reference_profile_similar(
                    profiles, u, k=3)) for u in users},
            }

        states = [reference()]
        phase = [0]                    # the last state fully reached
        finished = [-1] * 4            # per reader: p0 of its last answer
        answers, failures = [], []
        done = threading.Event()

        def reader(idx):
            i = 0
            while not done.is_set():
                user = users[(idx + i) % len(users)]
                servlet = ("recommend", "profile_similar")[(idx + i) % 2]
                i += 1
                p0 = phase[0]
                try:
                    response = dict(server.registry.dispatch({
                        "servlet": servlet, "user_id": user,
                        **({"k": 3} if servlet == "profile_similar" else {}),
                    }))
                    assert response.pop("status") == "ok", response
                except Exception as exc:        # noqa: BLE001 - reported below
                    failures.append(exc)
                    return
                answers.append((user, servlet, p0, canon(response)))
                finished[idx] = p0

        def writer():
            try:
                for step in range(1, MEMO_STORM_STEPS + 1):
                    if step % 2:
                        assert server.vectorizer.vector(fresh[step // 2])
                    else:
                        server.themes.taxonomy = taxonomies[(step // 2) % 2]
                    phase[0] = step
                    states.append(reference())
                    while min(finished) < step and not failures:
                        done.wait(0.001)
            except Exception as exc:            # noqa: BLE001 - reported below
                failures.append(exc)
            finally:
                done.set()

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "storm did not end"
        assert failures == []
        assert len(states) == MEMO_STORM_STEPS + 1
        assert all(a != b for a, b in zip(states, states[1:])), \
            "a step that moved no answer tests nothing"
        for user, servlet, p0, answer in answers:
            readable = states[p0:p0 + 2]
            assert any(answer == s[user, servlet] for s in readable), (
                f"{servlet}({user}) from state {p0} matches no state it "
                f"could have read")


# -- the differential oracle: a replayed community, checked at every step -----

def _steps_after_replay(system, workload):
    """Every kind of write a profile can depend on, one per step, none of
    them announced by a visit of the same user."""
    server = system.server
    users = [p.user_id for p in workload.profiles]
    late = "latecomer"

    def at():
        return server.now + 30.0

    def history():
        pages = _unseen_fetched_pages(server, users[2])[:3]
        unfetched = [
            row["url"] for row in server.repo.db.table("pages").scan()
            if not row["fetched"]
        ][:3]
        system.connect(users[2]).import_history([
            {"url": url, "at": at() + i} for i, url in enumerate(pages + unfetched)
        ])

    def visit_batch(user_id, n=4):
        urls = _unseen_fetched_pages(server, user_id)[:n]
        server.transport.request_batch(user_id, [
            {"servlet": "visit", "url": url, "at": at() + i, "session_id": 900}
            for i, url in enumerate(urls)
        ])

    def crawl_and_index():
        server.crawler.run_once()
        server.indexer.run_once()

    def crawl_a_page_nobody_visited():
        url = next(
            row["url"] for row in server.repo.db.table("pages").scan()
            if not row["fetched"] and server.crawler.fetch(row["url"]) is not None
        )
        server.crawler.enqueue(url)
        crawl_and_index()

    def register_latecomer():
        system.register_user(late, community=workload.name)

    def latecomer_bookmarks():
        for url in _unseen_fetched_pages(server, late)[:3]:
            system.connect(late).bookmark(url, "New", at=at())

    def archive_off_visit():
        applet = system.connect(users[1])
        applet.set_archive_mode("off")
        server.registry.dispatch({
            "servlet": "visit", "user_id": users[1],
            "url": _unseen_fetched_pages(server, users[1])[0], "at": at(),
        })
        applet.set_archive_mode("community")

    return [
        ("bookmark, no visit", lambda: _file_an_unseen_page(system, users[0])),
        ("visit batch", lambda: visit_batch(users[1])),
        ("import_history", history),
        ("crawl + index", crawl_and_index),
        ("folder_move", lambda: _move_a_bookmark(system, users[0])),
        ("dissociate", lambda: _dissociate_a_bookmark(system, users[2])),
        ("apply_hierarchy", lambda: _apply_a_hierarchy(system, users[1])),
        ("register_user", register_latecomer),
        ("new user's visits", lambda: visit_batch(late, 5)),
        ("new user's bookmarks", latecomer_bookmarks),
        ("taxonomy rebuild", lambda: server.tick(16)),
        ("a page nobody visited", crawl_a_page_nobody_visited),
        ("archive off", archive_off_visit),
        ("single visit", lambda: server.registry.dispatch({
            "servlet": "visit", "user_id": users[3], "at": at(),
            "url": _unseen_fetched_pages(server, users[3])[0],
        })),
        ("quiesce", server.process_background_work),
    ]


def _replay_in_chunks(system, workload, tick_every, *, check, chunk=20):
    """Replay *chunk* events at a time, ticking the daemons once per
    *tick_every* events; with *check* the server must serve the reference
    after every chunk."""
    server = system.server
    events = list(workload.events)
    ticks = 0
    for start in range(0, len(events), chunk):
        replay_events(events[start:start + chunk], system.connect, batch_size=8)
        due = min(start + chunk, len(events)) // tick_every
        server.tick(due - ticks)
        ticks = due
        if check:
            _assert_serves_the_reference(server, f"after event {start + chunk}")
    server.process_background_work()
    _assert_serves_the_reference(server, "after the replay")


def _walk_the_steps(system, workload, tick_every):
    server = system.server
    rebuilds = 0
    for label, act in _steps_after_replay(system, workload):
        taxonomy = server.themes.taxonomy
        act()
        if tick_every < 10 ** 9:
            server.tick(1)
        rebuilds += server.themes.taxonomy is not taxonomy
        _assert_serves_the_reference(server, f"after step {label!r}")
    assert rebuilds, "no step met a taxonomy rebuild"
    assert len(server.current_profiles()) == len(workload.profiles) + 1


@pytest.mark.parametrize("tick_every", [7, 40, 10 ** 9])
def test_every_chunk_of_a_replay_serves_the_reference(workload, tick_every):
    """Visits, bookmarks and folder creations as the community made them,
    mined at three cadences (the last never ticks before the end, so the
    first taxonomy meets the whole archive at once)."""
    with MemexSystem.from_workload(workload) as system:
        _replay_in_chunks(system, workload, tick_every, check=True)


@pytest.mark.parametrize("tick_every", [7, 40, 10 ** 9])
def test_every_write_after_a_replay_serves_the_reference(workload, tick_every):
    with MemexSystem.from_workload(workload) as system:
        _replay_in_chunks(system, workload, tick_every, check=False)
        _walk_the_steps(system, workload, tick_every)


def _no_bump_for_folder_writes(monkeypatch):
    real = FolderEdit._stamp

    def unengaged(self, *args):
        self._engaged.clear()
        return real(self, *args)

    monkeypatch.setattr(FolderEdit, "_stamp", unengaged)


def _no_bump_for_visit_batches(monkeypatch):
    real = MemexRepository._record_visit_batch

    def unstamped(self, *args):
        held = dict(self.stamps.engagement)
        try:
            return real(self, *args)
        finally:
            self.stamps.engagement.clear()
            self.stamps.engagement.update(held)

    monkeypatch.setattr(MemexRepository, "_record_visit_batch", unstamped)


def _no_flush_on_num_docs(monkeypatch):
    def held(self, taxonomy, num_docs):
        held_taxonomy, _, entries = self._profiles
        return entries if held_taxonomy is taxonomy else {}

    monkeypatch.setattr(MemexServer, "_held_profiles", held)


def _no_flush_on_taxonomy(monkeypatch):
    def held(self, taxonomy, num_docs):
        _, held_docs, entries = self._profiles
        return entries if held_docs == num_docs else {}

    monkeypatch.setattr(MemexServer, "_held_profiles", held)


def _memo_ignores_num_docs(monkeypatch):
    def held(self, taxonomy, num_docs):
        themes = self._page_themes
        if themes is None or themes.taxonomy is not taxonomy:
            themes = self._page_themes = PageThemes(
                self.vectorizer, taxonomy, num_docs)
        return themes

    monkeypatch.setattr(MemexServer, "_held_page_themes", held)


@pytest.mark.parametrize("mutate", [
    _no_bump_for_folder_writes, _no_bump_for_visit_batches,
    _no_flush_on_num_docs, _no_flush_on_taxonomy, _memo_ignores_num_docs,
])
def test_the_oracle_catches_a_forgotten_invalidation(workload, monkeypatch, mutate):
    """Mutation check of the oracle itself: break one signal at a time
    and the replay above must fail."""
    mutate(monkeypatch)
    with pytest.raises(AssertionError, match="differ|recommend|similar|mates"):
        with MemexSystem.from_workload(workload) as system:
            _replay_in_chunks(system, workload, 40, check=True)
            _walk_the_steps(system, workload, 40)


# -- the same oracle over short random histories of three users ---------------

_TOPICS = {
    "jazz": "jazz saxophone trumpet swing improvisation quartet",
    "bike": "cycling bicycle pedal gear race peloton",
    "cook": "recipe oven flour butter sugar pastry",
}
_WEB = {
    f"http://{topic}.test/{i}": FetchedPage(
        f"http://{topic}.test/{i}", f"{topic} page {i}",
        f"{words} {words.split()[i % 6]} extra{topic}{i}",
        (f"http://{topic}.test/{(i + 1) % 5}",),
    )
    for topic, words in _TOPICS.items() for i in range(5)
}
_URLS = sorted(_WEB) + ["http://dead.test/0"]
_USERS = ["u0", "u1", "u2"]
_EVERYONE = _USERS + ["u3"]                       # u3 registers mid-history
_FOLDERS = ["jazz", "bike", "cook", "misc"]

_OPS = st.one_of(
    st.tuples(st.just("visit"), st.sampled_from(_EVERYONE), st.sampled_from(_URLS)),
    st.tuples(st.just("visits"), st.sampled_from(_EVERYONE),
              st.lists(st.sampled_from(_URLS), min_size=1, max_size=4)),
    st.tuples(st.just("bookmark"), st.sampled_from(_EVERYONE),
              st.sampled_from(_URLS), st.sampled_from(_FOLDERS)),
    st.tuples(st.just("move"), st.sampled_from(_USERS), st.sampled_from(_URLS),
              st.sampled_from([None, *_FOLDERS]), st.sampled_from(_FOLDERS)),
    st.tuples(st.just("dissociate"), st.sampled_from(_USERS),
              st.sampled_from(_FOLDERS), st.sampled_from(_URLS)),
    st.tuples(st.just("register"), st.just("u3")),
    st.tuples(st.just("tick"), st.integers(min_value=1, max_value=9)),
)


def _three_users():
    system = MemexSystem(MemexServer(_WEB.get))
    for user_id in _USERS:
        system.register_user(user_id)
    clock = 0.0
    for user_id, topic in zip(_USERS, _TOPICS):
        applet = system.connect(user_id)
        for i in range(3):
            clock += 1.0
            applet.record_visit(f"http://{topic}.test/{i}", at=clock)
            applet.bookmark(f"http://{topic}.test/{i}", topic, at=clock)
    system.connect("u0").bookmark("http://bike.test/0", "bike", at=clock)
    system.connect("u0").bookmark("http://bike.test/1", "bike", at=clock)
    system.server.process_background_work()
    assert system.server.themes.taxonomy is not None
    return system


def _apply(system, op, clock):
    server, kind = system.server, op[0]
    if kind == "visit":
        server.registry.dispatch({
            "servlet": "visit", "user_id": op[1], "url": op[2], "at": clock})
    elif kind == "visits":
        server.transport.request_batch(op[1], [
            {"servlet": "visit", "url": url, "at": clock} for url in op[2]])
    elif kind == "bookmark":
        server.registry.dispatch({
            "servlet": "bookmark", "user_id": op[1], "url": op[2],
            "folder_path": op[3], "at": clock})
    elif kind == "move":
        server.registry.dispatch({
            "servlet": "folder_move", "user_id": op[1], "url": op[2],
            "from_folder": op[3], "to_folder": op[4], "at": clock})
    elif kind == "dissociate":
        with server.repo.edit(clock) as edit:
            edit.unfile(folder_id(op[1], op[2]), op[3])
    elif kind == "register":
        system.register_user(op[1])
    else:
        server.tick(op[1])


@settings(max_examples=40, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=8))
def test_any_short_history_serves_the_reference(ops):
    with _three_users() as system:
        _assert_serves_the_reference(system.server, "at the start")
        for i, op in enumerate(ops):
            _apply(system, op, clock=100.0 + i)
            _assert_serves_the_reference(system.server, f"after {ops[:i + 1]}")


# -- work budget: calls and selects, not seconds ------------------------------

def _count_builds(monkeypatch):
    built = []

    def counting(repo, themes, user_id):
        built.append(user_id)
        return build_profile(repo, themes, user_id)

    monkeypatch.setattr(memex_module, "build_profile", counting)
    return built


def test_one_users_visits_rebuild_one_profile(workload, monkeypatch):
    with _replayed(workload) as system:
        server = system.server
        users = [p.user_id for p in workload.profiles]
        server.current_profiles()
        built = _count_builds(monkeypatch)
        server.transport.request_batch(users[1], [
            {"servlet": "visit", "url": url, "at": server.now + 1.0 + i}
            for i, url in enumerate(_unseen_fetched_pages(server, users[1])[:8])
        ])
        server.current_profiles()
        assert built == [users[1]]
        server.current_profiles()
        _ask(server, users[0], "recommend")
        _ask(server, users[2], "profile_similar")
        assert built == [users[1]]
        system.register_user("latecomer")
        server.current_profiles()
        assert built == [users[1], "latecomer"]


@pytest.fixture(scope="module")
def crowd():
    """More users than a recommendation has neighbours."""
    workload = build_workload(seed=19, num_users=9, days=2, pages_per_leaf=6)
    with _replayed(workload) as system:
        yield system, [p.user_id for p in workload.profiles]


def test_a_recommendation_reads_its_neighbours_through_the_indexes(
    crowd, monkeypatch,
):
    system, users = crowd
    server = system.server
    server.current_profiles()
    reads = []
    candidates, scan = Table._candidates, Table.scan

    def spy_candidates(self, where):
        reads.append((self.schema.name, where))
        return candidates(self, where)

    def spy_scan(self):
        reads.append((self.schema.name, None))
        return scan(self)

    monkeypatch.setattr(Table, "_candidates", spy_candidates)
    monkeypatch.setattr(Table, "scan", spy_scan)
    pages = _ask(server, users[0], "recommend")["pages"]
    monkeypatch.undo()

    assert pages, "nothing recommended: the budget below would be vacuous"
    indexed = {"visits": "user_id", "folder_pages": "folder_id", "folders": "owner"}
    for table, where in reads:
        if table in indexed:
            assert isinstance(where, dict) and (
                indexed[table] in where
                or server.repo.db.table(table).schema.primary_key in where
            ), f"{table} scanned whole: {where!r}"
    asked = {where["user_id"] for table, where in reads if table == "visits"}
    neighbours = 5
    assert users[0] in asked and 1 < len(asked) <= 1 + neighbours < len(users)


def test_a_visit_is_acked_while_a_profile_build_is_parked(workload, monkeypatch):
    """The build holds no lock a visit needs, and the profile it finally
    publishes — read before that visit — does not replace the one a later
    request built after it."""
    with _replayed(workload) as system:
        server = system.server
        user_id = workload.profiles[0].user_id
        server.current_profiles()
        unseen = _unseen_fetched_pages(server, user_id)
        _ask(server, user_id, "visit", url=unseen[0], at=server.now + 1.0)
        parked, release = threading.Event(), threading.Event()
        built = []

        def parking_build(repo, themes, user):
            built.append(user)
            if len(built) == 1:             # the first build only
                parked.set()
                assert release.wait(60.0)
            return build_profile(repo, themes, user)

        monkeypatch.setattr(memex_module, "build_profile", parking_build)
        answers = {}
        reader = threading.Thread(target=lambda: answers.update(
            recommend=_ask(server, user_id, "recommend")))
        writer = threading.Thread(target=lambda: answers.update(
            visit=_ask(server, user_id, "visit", url=unseen[1], at=server.now + 2.0)))
        reader.start()
        try:
            assert parked.wait(30.0)
            writer.start()
            writer.join(5.0)
            acked_while_parked = not writer.is_alive()
            if acked_while_parked:
                server.current_profiles()   # builds and publishes the newer one
        finally:
            release.set()
            reader.join(60.0)
            writer.join(60.0)
        assert not reader.is_alive() and not writer.is_alive()
        assert acked_while_parked, "the visit waited for the profile build"
        assert answers["visit"]["archived"] and "pages" in answers["recommend"]
        assert built == [user_id, user_id]
        server.current_profiles()
        assert built == [user_id, user_id], "the older build replaced the newer"
        monkeypatch.undo()
        _assert_serves_the_reference(server, "after the parked build")
