"""Tokenization for Web page text: word extraction, stopwords, stemming.

Memex's "mundane" keyword indexing (§4) still needs a real text pipeline.
This module provides one equivalent to what late-90s IR systems used:
lowercasing, alphanumeric word extraction, a standard English stopword
list, and the Porter (1980) suffix-stripping stemmer implemented in full.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from functools import lru_cache

_WORD_RE = re.compile(r"[a-z0-9]+")

# The classic SMART-derived stopword core; enough for indexing quality
# without ballooning the module.
STOPWORDS = frozenset("""
a about above after again against all am an and any are as at be because
been before being below between both but by can did do does doing down
during each few for from further had has have having he her here hers
herself him himself his how i if in into is it its itself just me more
most my myself no nor not now of off on once only or other our ours
ourselves out over own same she should so some such than that the their
theirs them themselves then there these they this those through to too
under until up very was we were what when where which while who whom why
will with you your yours yourself yourselves
""".split())


def words(text: str) -> Iterator[str]:
    """Yield lowercase alphanumeric word tokens from *text*."""
    for match in _WORD_RE.finditer(text.lower()):
        yield match.group()


#: Words shorter than this are not index terms.
MIN_LEN = 2


def tokenize(text: str) -> list[str]:
    """Turn raw text into index terms: Porter stems of the words at least
    :data:`MIN_LEN` long that are not stopwords.

    Numbers are kept (they matter for queries like "compiler optimization
    at Rice University" hitting course numbers); stopwords are dropped
    before stemming.
    """
    return [
        porter_stem(w) for w in words(text)
        if len(w) >= MIN_LEN and w not in STOPWORDS
    ]


# ---------------------------------------------------------------------------
# Porter stemmer (M.F. Porter, "An algorithm for suffix stripping", 1980)
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Porter's m: number of VC sequences in the [C](VC)^m[V] form."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        v = not _is_consonant(stem, i)
        if prev_vowel and not v:
            m += 1
        prev_vowel = v
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _cvc(word: str) -> bool:
    """True when word ends consonant-vowel-consonant, final not w/x/y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


@lru_cache(maxsize=1 << 15)
def porter_stem(word: str) -> str:
    """Stem a lowercase word with the Porter algorithm.

    A pure function of the word, so it is memoised (bounded): an archive
    has far fewer distinct words than tokens, and crawler, indexer,
    vectorizer and snippets all stem the same page.
    """
    if len(word) <= 2:
        return word
    w = word

    # Step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # Step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        flag = False
        if w.endswith("ed") and _has_vowel(w[:-2]):
            w = w[:-2]
            flag = True
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            w = w[:-3]
            flag = True
        if flag:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_consonant(w) and not w.endswith(("l", "s", "z")):
                w = w[:-1]
            elif _measure(w) == 1 and _cvc(w):
                w += "e"

    # Step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Step 2
    for suffix, repl in _STEP2:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # Step 3
    for suffix, repl in _STEP3:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # Step 4 ("ion" is handled in the else-branch with its *S/*T condition)
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if _measure(stem) > 1:
                w = stem
            break
    else:
        if w.endswith("ion"):
            stem = w[:-3]
            if _measure(stem) > 1 and stem.endswith(("s", "t")):
                w = stem

    # Step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _cvc(stem)):
            w = stem

    # Step 5b
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        w = w[:-1]

    return w
