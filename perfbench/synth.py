"""Seeded synthetic inputs: a large-vocabulary provider, its topics and corpora.

Everything here is the benchmark's own input generation. It is never timed
as set-up; the program's set-up calls (Vocabulary construction, loaders,
``topic_token_set``) run on what these functions produce.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from topicsteer.models import Vocabulary

LARGE_VOCAB_SIZE = 50_000
LARGE_TOPICS = 4
LARGE_TOPIC_WORDS = 400
LARGE_TOP_N = 250  # 250 words x 4 surface forms gives topic sets of about 1,000 ids
LARGE_STATES = 512
LARGE_BACKGROUNDS = 8
LARGE_PROMPT_WORDS = (8, 13)

# Per-state successor logits, in the spirit of the shipped fixture: four strong
# non-topic successors, and per steered topic two candidates below the best
# successor. The first candidate's gap always flips the argmax under both
# threshold 0.005/1 and shift 5, so every steered greedy row differs from its
# 'none' row; the second's gap falls in one of three buckets (flips under
# both; flips under shift 5 only; never flips).
_SUCCESSOR_LOGITS = (12.0, 11.5, 11.0, 10.5)
_FLIP_GAP = (0.6, 3.3)  # probability stays >= 0.005 even when every other candidate is strong
_GAP_BUCKETS = (_FLIP_GAP, (4.6, 4.95), (5.5, 7.0))
_GAP_PROBS = (0.4, 0.3, 0.3)
_SPECIAL_LOGIT = -30.0

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"

FIXTURE_FILLERS = (
    "the", "a", "and", "of", "in", "on", "was", "were", "is", "it", "to", "for",
    "with", "at", "by", "from", "that", "this", "as", "but", "or", "after",
    "before", "about",
)


def _pseudo_words(rng: np.random.Generator, count: int) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        syllables = int(rng.integers(2, 4))
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        )
        words.add(word + _CONSONANTS[rng.integers(len(_CONSONANTS))])
    ordered = sorted(words)  # set order depends on string hashing; sorting keeps the seed in charge
    rng.shuffle(ordered)
    return ordered


class HashedStateProvider:
    """LogitsProvider over a large vocabulary without a dense V x V table.

    The state is the last prefix id modulo ``states``. A state's row is one of
    a few shared background rows plus a handful of per-state successor
    overrides, so memory is O(backgrounds x V + states) rather than V^2.
    Like ``ToyMarkovModel`` it validates the whole prefix on every call.
    """

    def __init__(self, vocabulary: Vocabulary, background: np.ndarray,
                 override_ids: np.ndarray, override_values: np.ndarray) -> None:
        self._vocabulary = vocabulary
        self.background = background
        self.override_ids = override_ids
        self.override_values = override_values
        self.states = override_ids.shape[0]

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    def row(self, last_id: int) -> np.ndarray:
        state = last_id % self.states
        out = self.background[state % self.background.shape[0]].copy()
        out[self.override_ids[state]] = self.override_values[state]
        return out

    def next_logits(self, prefix) -> np.ndarray:
        ids = [int(t) for t in prefix]
        if not ids:
            raise ValueError("prefix must be non-empty")
        self._vocabulary.validate_ids(ids)
        return self.row(ids[-1])


def _weights(count: int) -> list[float]:
    raw = [1.0 / (i + 10) for i in range(count)]
    total = sum(raw)
    return [round(w / total, 9) for w in raw]


def make_large_vocab(seed: int, work: Path) -> dict:
    """Token list, provider arrays, topics.json and corpus.jsonl for large-vocab.

    Returns the raw material; the program's own constructors and loaders turn
    it into a Vocabulary, a TopicModel and corpus samples during set-up.
    """
    rng = np.random.default_rng([seed, 50_000])
    n_words = (LARGE_VOCAB_SIZE - 4) // 4
    words = _pseudo_words(rng, n_words)
    tokens = ["<s>", "</s>", ".", ","]
    for word in words:
        cap = word[:1].upper() + word[1:]
        tokens += [" " + word, word, " " + cap, cap]
    index = {token: i for i, token in enumerate(tokens)}

    topic_words = [words[k * LARGE_TOPIC_WORDS:(k + 1) * LARGE_TOPIC_WORDS] for k in range(LARGE_TOPICS)]
    other_words = words[LARGE_TOPICS * LARGE_TOPIC_WORDS:]
    weights = _weights(LARGE_TOPIC_WORDS)
    topics = {"topics": [{"id": k, "words": [[w, weights[i]] for i, w in enumerate(ws)]}
                         for k, ws in enumerate(topic_words)]}
    (work / "topics.json").write_text(json.dumps(topics), encoding="utf-8")

    size = len(tokens)
    background = np.round(rng.normal(0.0, 1.0, (LARGE_BACKGROUNDS, size)), 6)
    background[:, [0, 1]] = _SPECIAL_LOGIT
    filler_ids = np.array([index[" " + w] for w in other_words], dtype=np.intp)
    candidate_ids = [np.array([index[" " + w] for w in ws[:LARGE_TOP_N]], dtype=np.intp)
                     for ws in topic_words[:2]]
    width = len(_SUCCESSOR_LOGITS) + 2 * len(candidate_ids)
    override_ids = np.empty((LARGE_STATES, width), dtype=np.intp)
    override_values = np.empty((LARGE_STATES, width))
    for state in range(LARGE_STATES):
        ids = list(rng.choice(filler_ids, size=len(_SUCCESSOR_LOGITS), replace=False))
        values = list(_SUCCESSOR_LOGITS)
        for pool in candidate_ids:
            ids.extend(int(i) for i in rng.choice(pool, size=2, replace=False))
            second = _GAP_BUCKETS[rng.choice(len(_GAP_BUCKETS), p=_GAP_PROBS)]
            values.extend(round(_SUCCESSOR_LOGITS[0] - rng.uniform(low, high), 6)
                          for low, high in (_FLIP_GAP, second))
        override_ids[state] = ids
        override_values[state] = values

    _write_corpus(work / "corpus.jsonl", [
        _sample(rng, f"L{k:03d}", [str(w) for w in rng.choice(other_words + topic_words[0] + topic_words[1],
                                                            size=int(rng.integers(*LARGE_PROMPT_WORDS)))],
                topic_words[0], topic_words[1])
        for k in range(2)
    ])
    return {"tokens": tokens, "background": background,
            "override_ids": override_ids, "override_values": override_values}


def make_long_prompts(seed: int, work: Path, lengths: tuple[int, ...],
                      topic0: tuple[str, ...], topic1: tuple[str, ...]) -> None:
    """corpus.jsonl whose articles are ``lengths`` words of fixture fillers and topic words."""
    rng = np.random.default_rng([seed, 3_000])
    samples = []
    for k, length in enumerate(lengths):
        draws = rng.random(length)
        words = [
            FIXTURE_FILLERS[rng.integers(len(FIXTURE_FILLERS))] if r < 0.7
            else (topic0 if r < 0.85 else topic1)[rng.integers(len(topic0))]
            for r in draws
        ]
        samples.append(_sample(rng, f"P{k:03d}", words, topic0, topic1))
    _write_corpus(work / "corpus.jsonl", samples)


def _sample(rng: np.random.Generator, article_id: str, words: list[str],
            topic0, topic1) -> dict:
    refs = ["the " + " and the ".join(str(w) for w in rng.choice(pool, size=8, replace=False))
            for pool in (topic0, topic1)]
    return {"article_id": article_id, "article": " ".join(words),
            "tid1": 0, "tid2": 1, "ref1": refs[0], "ref2": refs[1]}


def _write_corpus(path: Path, samples: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(sample) + "\n")
