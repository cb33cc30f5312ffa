"""Tests for tokenization and the Porter stemmer."""

import importlib

from hypothesis import given
from hypothesis import strategies as st

from repro.text.tokenize import STOPWORDS, porter_stem, tokenize, words

# The package re-exports the function under the module's name.
tokenize_module = importlib.import_module("repro.text.tokenize")


def test_words_lowercases_and_splits():
    assert list(words("Hello, World! 42-bit")) == ["hello", "world", "42", "bit"]


def test_tokenize_drops_stopwords():
    toks = tokenize("the cats and the hats")
    assert toks == ["cat", "hat"]


def test_tokenize_min_len(monkeypatch):
    assert tokenize("a ab abc") == ["ab", "abc"]
    monkeypatch.setattr(tokenize_module, "MIN_LEN", 3)
    assert tokenize("a ab abc") == ["abc"]


def test_tokenize_keeps_numbers():
    assert "1998" in tokenize("VLDB 1998 proceedings")


def test_stemming_conflates_variants():
    assert porter_stem("optimization") == porter_stem("optimizations")
    assert porter_stem("compiler") == porter_stem("compilers")
    assert porter_stem("browsing") == porter_stem("browse")
    assert porter_stem("classified") == porter_stem("classify")


# Reference pairs from Porter's published vocabulary examples.
PORTER_CASES = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]


def test_porter_reference_vocabulary():
    failures = [
        (word, porter_stem(word), want)
        for word, want in PORTER_CASES
        if porter_stem(word) != want
    ]
    assert not failures, f"stemmer deviations: {failures}"


def test_memoised_stemmer_equals_the_bare_algorithm(small_workload):
    vocabulary = {
        w for page in small_workload.corpus.pages.values() for w in words(page.text)
    }
    vocabulary.update(word for word, _ in PORTER_CASES)
    assert len(vocabulary) > 1000
    for word in sorted(vocabulary) * 2:      # second pass answers from the memo
        assert porter_stem(word) == porter_stem.__wrapped__(word), word


def test_stem_short_words_untouched():
    assert porter_stem("at") == "at"
    assert porter_stem("be") == "be"
    assert porter_stem("x") == "x"


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_stem_is_idempotent_on_its_output_length(word):
    # Stemming never lengthens a word and always returns a non-empty string.
    stemmed = porter_stem(word)
    assert 0 < len(stemmed) <= len(word)


@given(st.text(max_size=200))
def test_tokenize_total_on_arbitrary_text(text):
    toks = tokenize(text)
    assert all(isinstance(t, str) and t for t in toks)
    kept = {porter_stem(w) for w in words(text) if w not in STOPWORDS}
    assert set(toks) <= kept


@given(st.lists(st.sampled_from(["compiler", "music", "cycling", "vldb"]), max_size=30))
def test_tokenize_is_deterministic(tokens):
    text = " ".join(tokens)
    assert tokenize(text) == tokenize(text)
