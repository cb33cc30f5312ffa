"""Tests for the boolean query language and snippet generation."""

import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.index import InvertedIndex
from repro.text.query import (
    And,
    Not,
    Or,
    QueryParseError,
    Term,
    evaluate,
    parse_query,
    positive_terms,
    ranked_boolean_search,
)
from repro.text.search import SearchEngine
from repro.text.snippets import Snippet, _token_table, make_snippet
from repro.text.tokenize import porter_stem, tokenize

DOCS = {
    "d1": "classical music symphony orchestra",
    "d2": "jazz music saxophone",
    "d3": "classical guitar flamenco",
    "d4": "compiler optimization techniques",
    "d5": "music theory for compiler engineers",
}


@pytest.fixture(scope="module")
def index():
    idx = InvertedIndex()
    for doc_id, text in DOCS.items():
        idx.add_document(doc_id, text)
    return idx


@pytest.fixture(scope="module")
def engine(index):
    return SearchEngine(index)


# -- parsing ------------------------------------------------------------------

def test_parse_single_term():
    node = parse_query("music")
    assert node == Term(porter_stem("music"))


def test_parse_implicit_and():
    node = parse_query("classical music")
    assert isinstance(node, And)


def test_parse_explicit_operators():
    node = parse_query("classical AND music OR jazz")
    # OR binds loosest: (classical AND music) OR jazz
    assert isinstance(node, Or)
    assert isinstance(node.left, And)
    assert node.right == Term("jazz")


def test_parse_not_and_parens():
    node = parse_query("music AND NOT (jazz OR flamenco)")
    assert isinstance(node, And)
    assert isinstance(node.right, Not)
    assert isinstance(node.right.child, Or)


def test_parse_errors():
    for bad in ["", "AND", "music AND", "(music", "music)", "NOT", "()",
                "music OR OR jazz"]:
        with pytest.raises(QueryParseError):
            parse_query(bad)


def test_parse_stopword_only_term_rejected():
    with pytest.raises(QueryParseError):
        parse_query("the")


def test_multiword_token_becomes_and():
    # Punctuation-glued input still tokenizes into AND-ed stems.
    node = parse_query("compiler-optimization")
    assert isinstance(node, And)


# -- evaluation ---------------------------------------------------------------------

def test_evaluate_and(index):
    assert evaluate(parse_query("classical music"), index) == {"d1"}


def test_evaluate_or(index):
    got = evaluate(parse_query("jazz OR flamenco"), index)
    assert got == {"d2", "d3"}


def test_evaluate_not(index):
    got = evaluate(parse_query("music AND NOT jazz"), index)
    assert got == {"d1", "d5"}


def test_evaluate_nested(index):
    got = evaluate(parse_query("(classical OR compiler) AND NOT guitar"), index)
    assert got == {"d1", "d4", "d5"}


def test_evaluate_pure_negation(index):
    got = evaluate(parse_query("NOT music"), index)
    assert got == {"d3", "d4"}


def test_positive_terms():
    node = parse_query("music AND NOT jazz OR classical")
    assert set(positive_terms(node)) == {porter_stem("music"), "classic"}


# -- ranked boolean search ---------------------------------------------------------------

def test_ranked_boolean_respects_filter(engine):
    hits = ranked_boolean_search(engine, "music AND NOT jazz")
    ids = [h.doc_id for h in hits]
    assert set(ids) == {"d1", "d5"}
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)


def test_ranked_boolean_empty_result(engine):
    assert ranked_boolean_search(engine, "classical AND saxophone") == []


def test_ranked_boolean_pure_negation(engine):
    hits = ranked_boolean_search(engine, "NOT music", k=10)
    assert [h.doc_id for h in hits] == ["d3", "d4"]


def test_ranked_boolean_k(engine):
    assert len(ranked_boolean_search(engine, "music OR classical", k=2)) == 2


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["music", "jazz", "classical", "compiler", "guitar"]),
       st.sampled_from(["AND", "OR"]),
       st.sampled_from(["music", "jazz", "classical", "compiler", "guitar"]))
def test_boolean_semantics_property(index, a, op, b):
    got = evaluate(parse_query(f"{a} {op} {b}"), index)
    sa = evaluate(parse_query(a), index)
    sb = evaluate(parse_query(b), index)
    assert got == (sa & sb if op == "AND" else sa | sb)


# -- snippets -------------------------------------------------------------------------------

LONG_TEXT = (
    "Intro filler words here about nothing in particular. " * 5
    + "The compiler performs register allocation and optimization passes. "
    + "Closing filler words continue for a while after that. " * 5
)


def test_snippet_centers_on_query_terms():
    snippet = make_snippet(LONG_TEXT, "register allocation")
    assert "register" in snippet.text
    assert snippet.leading_ellipsis
    assert snippet.trailing_ellipsis
    assert snippet.highlights


def test_snippet_marks_stemmed_matches():
    snippet = make_snippet(
        "We were optimizing compilers all day.", "compiler optimization",
    )
    marked = snippet.marked()
    assert "[optimizing]" in marked
    assert "[compilers]" in marked


def test_snippet_highlight_offsets_are_correct():
    snippet = make_snippet(LONG_TEXT, "optimization")
    for start, end in snippet.highlights:
        word = snippet.text[start:end]
        assert porter_stem(word.lower()) == porter_stem("optimization")


def test_snippet_fallback_without_matches():
    snippet = make_snippet("Just some plain text.", "zebra")
    assert snippet.text
    assert snippet.highlights == ()


def test_snippet_empty_text():
    snippet = make_snippet("", "query")
    assert snippet.text == ""


def test_snippet_short_text_no_ellipses():
    snippet = make_snippet("compiler talk", "compiler")
    assert not snippet.leading_ellipsis
    assert not snippet.trailing_ellipsis
    assert snippet.marked().startswith("[compiler]")


# -- differential oracle: the O(page) implementation this one replaced --------------------

def _reference_snippet(text: str, query: str, *, window: int = 30) -> Snippet:
    """`make_snippet` as it was before the token-table memo, verbatim."""
    query_stems = set(tokenize(query))
    # Token spans over the original text.
    spans: list[tuple[str, int, int]] = []
    for match in re.finditer(r"[A-Za-z0-9]+", text):
        spans.append((match.group().lower(), match.start(), match.end()))
    if not spans:
        return Snippet(text[:200], (), False, len(text) > 200)

    is_hit = [porter_stem(w) in query_stems for w, _s, _e in spans]

    # Densest window of `window` tokens by hit count (earliest wins ties).
    best_start, best_hits = 0, -1
    running = sum(is_hit[:window])
    best_hits = running
    for start in range(1, max(1, len(spans) - window + 1)):
        running += (is_hit[start + window - 1] if start + window - 1 < len(spans) else 0)
        running -= is_hit[start - 1]
        if running > best_hits:
            best_hits, best_start = running, start

    chunk = spans[best_start: best_start + window]
    chunk_start = chunk[0][1]
    chunk_end = chunk[-1][2]
    excerpt = text[chunk_start:chunk_end]
    highlights = tuple(
        (s - chunk_start, e - chunk_start)
        for (w, s, e), hit in zip(spans[best_start: best_start + window],
                                  is_hit[best_start: best_start + window])
        if hit
    )
    return Snippet(
        text=excerpt,
        highlights=highlights,
        leading_ellipsis=best_start > 0,
        trailing_ellipsis=best_start + window < len(spans),
    )


WINDOWS = (1, 5, 30, 10_000)


def _assert_same_snippet(text, query, window):
    got = make_snippet(text, query, window=window)
    want = _reference_snippet(text, query, window=window)
    assert got == want, (query, window, text[:80])
    assert got.marked() == want.marked()


def test_snippets_equal_reference_over_a_corpus(small_workload):
    rng = random.Random(16)
    leaves = list(small_workload.root.leaves())
    queries = [
        " ".join(rng.sample(leaf.seed_terms, rng.choice((1, 2, 3))))
        for leaf in rng.choices(leaves, k=24)
    ]
    pages = rng.sample(sorted(
        small_workload.corpus.pages.values(), key=lambda p: p.url,
    ), 60)
    for page in pages:
        for query in queries:
            for window in WINDOWS:
                _assert_same_snippet(page.text, query, window)


TIE_TEXT = "alpha filler filler beta alpha filler filler beta tail words"

EDGE_CASES = [
    ("", "query"),                                     # empty text
    ("... --- !!! \u00e9\u00e8 ???" * 30, "query"),      # no [A-Za-z0-9] at all
    ("Just some plain text. " * 20, "zebra"),          # no hit: head fallback
    (LONG_TEXT, "the and of"),                         # stopword-only query
    (LONG_TEXT, ""),                                   # empty query
    ("Un caf\u00e9 au lait, s'il vous pla\u00eet", "caf"),   # non-ASCII splits words
    ("Un caf\u00e9 au lait, s'il vous pla\u00eet", "caf\u00e9 pla\u00eet"),
    ("compiler talk", "compiler"),                     # shorter than the window
    (TIE_TEXT, "alpha beta"),                          # equally dense windows
    ("x " * 50 + "Register ALLOCATION registers", "register allocation"),
    ("thes the these", "thes"),                        # a stopword's stem as a query stem
]


@pytest.mark.parametrize("window", WINDOWS + (2, 4))
@pytest.mark.parametrize("text, query", EDGE_CASES)
def test_snippet_edges_equal_reference(text, query, window):
    _assert_same_snippet(text, query, window)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["alpha", "Betas", "x", "the", "9", "\u00e9", ", ", "-"]),
             max_size=40),
    st.lists(st.sampled_from(["alpha", "beta", "the", "x", "9"]), max_size=3),
    st.integers(min_value=1, max_value=12),
)
def test_snippet_equals_reference_on_dense_small_texts(parts, query, window):
    _assert_same_snippet(" ".join(parts), " ".join(query), window)


def test_snippet_non_ascii_letter_splits_a_word():
    assert make_snippet("Un caf\u00e9 noir", "caf").marked() == "Un [caf]\u00e9 noir"


def test_snippet_earliest_of_equally_dense_windows_wins():
    snippet = make_snippet(TIE_TEXT, "alpha beta", window=4)
    assert snippet.text == "alpha filler filler beta"
    assert not snippet.leading_ellipsis and snippet.trailing_ellipsis


@pytest.mark.parametrize("window", [0, -1])
def test_snippet_window_below_one_is_a_value_error(window):
    with pytest.raises(ValueError):
        make_snippet(LONG_TEXT, "compiler", window=window)
    with pytest.raises(ValueError):
        make_snippet("", "compiler", window=window)


# -- the memos: bounded, shared between threads, and doing the saving ---------------------

def test_token_table_and_stemmer_memos_stay_within_their_caps():
    table_cap = _token_table.cache_info().maxsize
    for i in range(table_cap + 50):
        make_snippet(f"page number {i} about compilers", "compiler")
    assert _token_table.cache_info().currsize == table_cap
    stem_cap = porter_stem.cache_info().maxsize
    for i in range(stem_cap + 50):
        porter_stem(f"w{i}")
    assert porter_stem.cache_info().currsize == stem_cap


def test_second_query_on_a_seen_page_stems_no_page_word():
    text = LONG_TEXT + " seen-page marker qzxv"
    make_snippet(text, "register allocation")
    tokenize("optimization passes")          # the next query's own words
    stems, tables = porter_stem.cache_info(), _token_table.cache_info()
    make_snippet(text, "optimization passes")
    assert porter_stem.cache_info().misses == stems.misses
    assert _token_table.cache_info().hits == tables.hits + 1
    assert _token_table.cache_info().misses == tables.misses


def test_concurrent_snippets_equal_serial_answers(small_workload):
    pages = sorted(small_workload.corpus.pages.values(), key=lambda p: p.url)[:40]
    leaf = next(iter(small_workload.root.leaves()))
    queries = [" ".join(leaf.seed_terms[i:i + 2]) for i in range(4)]
    want = [_reference_snippet(p.text, q) for p in pages for q in queries]
    _token_table.cache_clear()
    answers: dict[int, list[Snippet]] = {}
    start = threading.Barrier(8)

    def worker(n: int) -> None:
        start.wait(timeout=30)
        answers[n] = [make_snippet(p.text, q) for p in pages for q in queries]

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [answers.get(n) == want for n in range(8)] == [True] * 8


def test_search_after_recrawl_snippets_the_new_text():
    from repro.core import MemexServer
    from repro.server.daemons import FetchedPage

    texts = {"http://s/1": "quokka habitat notes from the island survey"}
    server = MemexServer(
        lambda url: FetchedPage(url, "Field notes", texts[url], []),
    )

    def ask(query):
        return server.transport.request(
            "u", {"servlet": "search", "user_id": "u", "query": query},
        )["hits"]

    server.transport.request("u", {"servlet": "register_user", "user_id": "u", "at": 0.0})
    server.transport.request(
        "u", {"servlet": "visit", "user_id": "u", "url": "http://s/1", "at": 1.0},
    )
    server.tick(4)
    assert "[quokka]" in ask("quokka")[0]["snippet"]

    fresh = "wombat burrow notes, and the quokka chapter moved to volume two"
    server.repo.upsert_page("http://s/1", now=2.0, title="Field notes", text=fresh)
    server.tick(4)
    [hit] = ask("quokka chapter")
    assert hit["snippet"] == make_snippet(fresh, "quokka chapter").marked()
    assert "island" not in hit["snippet"]


# -- servlet integration -------------------------------------------------------------------

def test_search_servlet_boolean_mode_and_snippets(live_system, small_workload):
    user = small_workload.profiles[0].user_id
    applet = live_system.connect(user)
    top_topic = max(
        small_workload.profiles[0].interests.items(), key=lambda kv: kv[1]
    )[0]
    leaf = small_workload.root.find(top_topic)
    a, b = leaf.seed_terms[0], leaf.seed_terms[1]
    hits = applet.search(f"{a} AND {b}", mode="boolean", k=5)
    for hit in hits:
        assert hit["snippet"] is None or isinstance(hit["snippet"], str)
    ranked = applet.search(a, k=3)
    assert ranked and any("[" in (h["snippet"] or "") for h in ranked)


# -- phrase queries: the index keeps no positions -------------------------------

def test_phrase_query_end_to_end():
    """A quoted phrase is refused before evaluation, as a ``bad_request``
    (the client's fault), not answered as a retryable server fault."""
    from repro.errors import error_payload
    idx = InvertedIndex()
    idx.add_document("p1", "register allocation in optimizing compilers")
    engine = SearchEngine(idx)
    for query in ('"register allocation"', '"register allocation" AND NOT twice',
                  'register "allocation"'):
        with pytest.raises(QueryParseError) as caught:
            ranked_boolean_search(engine, query)
        payload = error_payload(caught.value)
        assert payload["error_code"] == "bad_request", query
        assert payload["retryable"] is False, query


def test_phrase_parse_errors():
    for query in ('"unterminated', '""', '"music"', 'a "b c" d'):
        with pytest.raises(QueryParseError):
            parse_query(query)
