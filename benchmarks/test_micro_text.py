"""M2/M4 — text substrate microbenchmarks: tokenizer, index, search."""

import random

import pytest

from repro.text.index import InvertedIndex
from repro.text.search import SearchEngine
from repro.text.tokenize import porter_stem, tokenize
from repro.webgen import generate_corpus, master_taxonomy

SAMPLE = (
    "The Memex server consists of servlets that perform various archiving "
    "and mining functions as triggered by client action, or continually as "
    "demons. Background demons continually fetch pages, index them, and "
    "analyze them with respect to topics and folders. "
) * 10


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(31)
    return generate_corpus(master_taxonomy(), rng, pages_per_leaf=15)


@pytest.fixture(scope="module")
def built_index(corpus):
    index = InvertedIndex()
    for page in corpus.pages.values():
        index.add_document(page.url, page.title + " " + page.text)
    return index


def test_bench_tokenizer(benchmark):
    tokens = benchmark(lambda: tokenize(SAMPLE))
    assert len(tokens) > 100


def test_bench_porter_stemmer(benchmark):
    words = ["optimization", "classification", "relational", "browsing",
             "archiving", "continually", "hierarchies", "communities"] * 25

    def stem_all():
        return [porter_stem(w) for w in words]

    out = benchmark(stem_all)
    assert out[0] == "optim"


def test_bench_index_build(benchmark, corpus):
    pages = list(corpus.pages.values())[:150]

    def build():
        index = InvertedIndex()
        for page in pages:
            index.add_document(page.url, page.title + " " + page.text)
        return index

    index = benchmark.pedantic(build, rounds=3, iterations=1)
    benchmark.extra_info["docs"] = len(pages)
    assert index.num_docs == len(pages)


def test_bench_index_add_one(benchmark, corpus):
    index = InvertedIndex()
    pages = list(corpus.pages.values())
    counter = [0]

    def add_one():
        page = pages[counter[0] % len(pages)]
        counter[0] += 1
        index.add_document(f"{page.url}#{counter[0]}", page.text)

    benchmark(add_one)


def test_bench_search_bm25(benchmark, built_index):
    engine = SearchEngine(built_index)
    hits = benchmark(lambda: engine.search("classical symphony orchestra", k=10))
    benchmark.extra_info["corpus_docs"] = built_index.num_docs
    assert hits


def test_bench_search_scoped(benchmark, built_index):
    engine = SearchEngine(built_index)
    candidates = set(built_index.document_ids()[:100])
    hits = benchmark(
        lambda: engine.search("travel europe museum", k=10, candidates=candidates)
    )
    for hit in hits:
        assert hit.doc_id in candidates
