"""Deterministic suffix-stripping stemmer (classic Porter rule set).

Single canonical stemmer shared by topic-word expansion and text scoring.
No exception dictionaries and no locale dependence, so any reimplementation
of the same rule tables produces identical stems.
"""

from __future__ import annotations

import functools

_VOWELS = frozenset("aeiou")


def _cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return True if i == 0 else not _cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions: <C>(VC)^m<V> gives m."""
    n = 0
    i = 0
    length = len(stem)
    while i < length and _cons(stem, i):
        i += 1
    while i < length:
        while i < length and not _cons(stem, i):
            i += 1
        if i >= length:
            break
        n += 1
        while i < length and _cons(stem, i):
            i += 1
    return n


def _has_vowel(stem: str) -> bool:
    return any(not _cons(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _cons(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the last consonant is not w, x or y
    i = len(word) - 1
    if i < 2:
        return False
    if not _cons(word, i) or _cons(word, i - 1) or not _cons(word, i - 2):
        return False
    return word[i] not in "wxy"


def _step_1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step_1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    if word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word
    # cleanup after a bare -ed / -ing strip
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step_1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# (suffix, replacement) pairs; within each step the first (longest) match wins
# and a failed measure condition ends the step without trying shorter suffixes.
_STEP2_RULES = (
    ("ational", "ate"),
    ("ization", "ize"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("ation", "ate"),
    ("alism", "al"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("ousli", "ous"),
    ("entli", "ent"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("ator", "ate"),
    ("eli", "e"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
)

_STEP4_SUFFIXES = (
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ion",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "al",
    "er",
    "ic",
    "ou",
)


def _apply_rules(word: str, rules, min_measure: int) -> str:
    for suffix, repl in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > min_measure:
                return stem + repl
            return word
    return word


def _step_4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) <= 1:
                return word
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem
    return word


def _step_5(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]
    return word


# Scoring and topic expansion stem the same words again and again; the bound
# keeps a run over an open vocabulary from growing the cache without limit.
@functools.lru_cache(maxsize=4096)
def stem(word: str) -> str:
    """Stem a single lowercase word; words of length <= 2 pass through."""
    word = word.lower()
    if len(word) <= 2:
        return word
    word = _step_1a(word)
    word = _step_1b(word)
    word = _step_1c(word)
    word = _apply_rules(word, _STEP2_RULES, 0)
    word = _apply_rules(word, _STEP3_RULES, 0)
    word = _step_4(word)
    word = _step_5(word)
    return word
