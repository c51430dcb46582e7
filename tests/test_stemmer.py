import pytest
from hypothesis import given
from hypothesis import strategies as st

from topicsteer.stemmer import stem

# Hand-checked against the classic suffix-stripping rule tables.
KNOWN_STEMS = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "failing": "fail",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "digitizer": "digit",
    "operational": "oper",
    "feudalism": "feudal",
    "effective": "effect",
    "replacement": "replac",
    "adjustment": "adjust",
    "communism": "commun",
    "adoption": "adopt",
    "running": "run",
    "court": "court",
    "courts": "court",
    "ruled": "rule",
    "rules": "rule",
    "judge": "judg",
    "witness": "wit",
}


@pytest.mark.parametrize("word,expected", sorted(KNOWN_STEMS.items()))
def test_known_stems(word, expected):
    assert stem(word) == expected


def test_short_words_pass_through():
    for word in ("a", "is", "by", "it"):
        assert stem(word) == word


def test_uppercase_input_is_normalized():
    assert stem("Running") == "run"


def test_deterministic():
    words = list(KNOWN_STEMS) * 3
    assert [stem(w) for w in words] == [stem(w) for w in words]


@given(st.lists(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=14), max_size=20))
def test_cached_stems_equal_uncached(words):
    uncached = stem.__wrapped__
    for word in sorted(KNOWN_STEMS) + words + words:
        assert stem(word) == uncached(word)
