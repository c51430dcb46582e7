"""Topic-word distributions and their expansion into vocabulary token sets.

A topic is an ordered list of (word, weight) pairs. To steer generation the
top N words of a topic are expanded into every surface variant (stem,
capitalization, leading space) that exactly matches a vocabulary token; the
resulting id set is what the reweighting methods act on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping

from .models import Vocabulary, as_int, as_real, read_json
from .stemmer import stem

__all__ = [
    "TopicModel",
    "TopicModelFormatError",
    "TopicTokenSet",
    "expand_word",
    "load_topic_model",
    "topic_token_set",
]

logger = logging.getLogger(__name__)

# How many of a topic's highest-weight words are expanded and scored, unless a caller says otherwise.
DEFAULT_TOP_N = 25


class TopicModelFormatError(ValueError):
    """Raised when a topic-model file does not conform to the on-disk format."""


@dataclass(frozen=True)
class TopicModel:
    """Topics as weighted word lists, each sorted by descending weight."""

    topics: Mapping[int, tuple[tuple[str, float], ...]]

    def topic_ids(self) -> list[int]:
        return sorted(self.topics)

    def top_words(self, topic_id: int, top_n: int) -> tuple[tuple[str, float], ...]:
        if topic_id not in self.topics:
            raise KeyError(f"unknown topic id {topic_id}")
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        return self.topics[topic_id][:top_n]

    @cached_property
    def word_topic_shares(self) -> dict[str, dict[int, float]]:
        """Per word, each listing topic's share of the word's total weight; words of total 0 are left out."""
        index: dict[str, dict[int, float]] = {}
        for tid, words in self.topics.items():
            for word, weight in words:
                index.setdefault(word, {})[tid] = weight
        shares = {}
        for word, weights in index.items():
            total = sum(weights.values())
            if total <= 0.0:
                continue
            shares[word] = {tid: weight / total for tid, weight in weights.items()}
        return shares

    @cached_property
    def word_stems(self) -> dict[int, tuple[str, ...]]:
        """Per topic, the stem of each of its words, in the topic's order."""
        return {tid: tuple(stem(word) for word, _weight in words) for tid, words in self.topics.items()}


@dataclass(frozen=True)
class TopicTokenSet:
    """Token ids representing one topic, with the word each id came from."""

    topic_id: int
    token_ids: frozenset[int]
    provenance: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if set(self.provenance) != set(self.token_ids):
            raise ValueError("provenance must cover exactly the token ids in the set")

    def __len__(self) -> int:
        return len(self.token_ids)

    def sorted_ids(self) -> list[int]:
        return sorted(self.token_ids)


def load_topic_model(path: str | Path) -> TopicModel:
    """Load a topic model from JSON: {"topics": [{"id": int, "words": [[word, weight], ...]}]}.

    Words are lowercased, weights must be non-negative and finite, and each
    topic's list is re-sorted by descending weight (stable for ties).
    """
    path = Path(path)
    raw = read_json(path, TopicModelFormatError)
    topics: dict[int, tuple[tuple[str, float], ...]] = {}
    try:
        if not isinstance(raw.get("topics"), list):
            raise ValueError("expected an object with a 'topics' array")
        for entry in raw["topics"]:
            if not isinstance(entry, dict) or "id" not in entry or "words" not in entry:
                raise ValueError("each topic needs 'id' and 'words'")
            tid = as_int(entry["id"], "topic id")
            if tid in topics:
                raise ValueError(f"duplicate topic id {tid}")
            words = entry["words"]
            if not isinstance(words, list) or not words:
                raise ValueError(f"topic {tid} must list at least one word")
            weights: dict[str, float] = {}
            for item in words:
                if not isinstance(item, (list, tuple)) or len(item) != 2:
                    raise ValueError(f"topic {tid} entries must be [word, weight] pairs")
                word, weight = item
                if not isinstance(word, str):
                    raise ValueError(f"topic {tid} word {word!r} is not a string")
                if not word.strip():
                    raise ValueError(f"topic {tid} has an empty word")
                weight = as_real(weight, f"topic {tid} weight for {word!r}")
                if weight < 0.0:
                    raise ValueError(f"topic {tid} weight for {word!r} must be finite and >= 0")
                word = word.strip().lower()
                if word in weights:
                    raise ValueError(f"topic {tid} lists {word!r} twice")
                weights[word] = weight
            topics[tid] = tuple(sorted(weights.items(), key=lambda p: -p[1]))
        if not topics:
            raise ValueError("no topics defined")
    except (TypeError, ValueError) as exc:  # every rule above, and as_int/as_real's, gets the file's name
        raise TopicModelFormatError(f"{path}: {exc}") from None
    return TopicModel(topics=topics)


def expand_word(word: str) -> tuple[str, ...]:
    """The surface forms of a word that could appear as vocabulary tokens, in preference order.

    The word is lowercased; then come " word", "word", " Word", "Word" and
    the same four forms of its stem, each form once, where it first occurs.
    The fixture builder gives a word's tokens in this order.
    """
    if not word:
        raise ValueError("cannot expand an empty word")
    word = word.lower()
    forms = []
    for base in (word, stem(word)):
        capital = base[:1].upper() + base[1:]
        forms += (" " + base, base, " " + capital, capital)
    return tuple(dict.fromkeys(forms))


def topic_token_set(
    topic_id: int,
    model: TopicModel,
    vocab: Vocabulary,
    top_n: int = DEFAULT_TOP_N,
) -> TopicTokenSet:
    """Expand a topic's top_n words into the matching vocabulary token ids.

    Matching is exact string equality against token strings; words whose
    variants match nothing contribute nothing. When two words produce the
    same token, the earlier (higher-weight) word keeps the provenance entry.
    """
    ids: set[int] = set()
    provenance: dict[int, str] = {}
    for word, _weight in model.top_words(topic_id, top_n):
        for variant in sorted(expand_word(word)):
            tid = vocab.lookup(variant)
            if tid is not None and tid not in ids:
                ids.add(tid)
                provenance[tid] = word
    if not ids:
        logger.warning("topic %d: no top-%d word variant matches the vocabulary", topic_id, top_n)
    return TopicTokenSet(topic_id=topic_id, token_ids=frozenset(ids), provenance=provenance)
