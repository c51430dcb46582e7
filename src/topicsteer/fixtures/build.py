"""Deterministic builder for the shipped fixture suite.

Builds three files into the fixtures directory:

* ``topics.json``   two disjoint 25-word topics with descending weights
* ``toy_model.json`` an order-1 Markov model whose vocabulary carries 3-5
  surface-variant tokens per topic word, wired so that shifting topic logits
  flips progressively more greedy argmaxes as the shift grows
* ``corpus.jsonl``  25 synthetic articles, each tagged with both topics and
  a reference summary per topic

Every state of the Markov table has one strong filler successor (logit 3.0)
and one designated topic candidate per topic at 3.0 minus a gap drawn from
one of four buckets: already ahead (gap < 0), flips under a shift of 2,
flips only under a shift of 5, never flips. The builder runs no decode: the
tests hold the fixture contract on the committed files.
``tests/test_fixtures.py`` checks that this builder reproduces them byte for
byte, ``test_acceptance.py::test_10`` checks the topic expansion, stems and
prompts, and ``test_acceptance.py::test_07`` checks the steering trend under
greedy and 4-beam decoding and pins its means.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from ..models import ToyMarkovModel, Vocabulary, save_toy_model
from ..topics import TopicModel, expand_word

SEED = 20260809

FILLERS = (
    "the", "a", "and", "of", "in", "on", "was", "were", "is", "it", "to", "for",
    "with", "at", "by", "from", "that", "this", "as", "but", "or", "after",
    "before", "about",
)

# Ordered so that every third word (variant count 5) has a stem differing
# from the word itself, which guarantees five distinct surface forms.
TOPIC0_WORDS = (
    "court", "trial", "judge", "lawyer", "verdict", "justice", "prison",
    "appeal", "ruling", "lawsuit", "plea", "sentence", "legal", "crime",
    "hearing", "prosecutor", "jury", "evidence", "witness", "attorney",
    "defendant", "guilty", "testimony", "conviction", "judicial",
)
TOPIC1_WORDS = (
    "rocket", "orbit", "galaxy", "planet", "comet", "telescope", "astronaut",
    "launch", "satellite", "mission", "lunar", "gravity", "solar", "cosmic",
    "capsule", "spacecraft", "crater", "shuttle", "meteor", "nebula",
    "module", "stellar", "probe", "physics", "asteroid",
)

_VARIANT_PATTERN = (4, 3, 5)

# Gap buckets (low, high); gap = filler logit - candidate logit.
_GAP_BUCKETS = (
    (-0.8, -0.2),  # topic candidate already wins unshifted
    (0.6, 1.6),    # flips under a shift of 2
    (2.4, 4.6),    # flips under a shift of 5
    (5.5, 7.0),    # never flips at the tested shifts
)
# Topic tokens lead to friendlier topic continuations than filler tokens do.
# Greedy decoding cannot see that; beam search can, which is what makes the
# 4-beam steered score exceed the greedy one on this fixture.
_BUCKET_PROBS_FILLER = (0.02, 0.23, 0.45, 0.30)
_BUCKET_PROBS_TOPIC = (0.10, 0.30, 0.45, 0.15)

FILLER_LOGIT = 3.0
TOPIC_STATE_FILLER_LOGIT = 2.0  # topic states prefer staying topical once steered
SUPPRESSED_TOPIC_LOGIT = -8.0
SPECIAL_LOGIT = -30.0
ARTICLES = 25


def build_vocabulary() -> tuple[Vocabulary, dict[str, tuple[str, ...]]]:
    chosen: dict[str, tuple[str, ...]] = {}
    tokens: list[str] = ["<s>", "</s>"] + [" " + f for f in FILLERS]
    for words in (TOPIC0_WORDS, TOPIC1_WORDS):
        for i, word in enumerate(words):
            count = _VARIANT_PATTERN[i % 3]
            candidates = expand_word(word)
            if len(candidates) < count:
                raise AssertionError(f"{word!r} offers only {len(candidates)} variants, needs {count}")
            chosen[word] = candidates[:count]
            tokens.extend(chosen[word])
    if len(set(tokens)) != len(tokens):
        raise AssertionError("fixture token strings collide")
    return Vocabulary.from_tokens(tokens, bos="<s>", eos="</s>"), chosen


def build_topic_model() -> TopicModel:
    topics = {}
    for tid, words in enumerate((TOPIC0_WORDS, TOPIC1_WORDS)):
        total = sum(40 - i for i in range(len(words)))
        topics[tid] = tuple((word, (40 - i) / total) for i, word in enumerate(words))
    return TopicModel(topics=topics)


def build_markov_table(vocab: Vocabulary, chosen: dict[str, tuple[str, ...]], rng: np.random.Generator) -> np.ndarray:
    """The logits table; ``chosen`` maps each topic word to its vocabulary variants."""
    size = vocab.size
    filler_ids = [vocab.lookup(" " + f) for f in FILLERS]
    topic_words = dict(enumerate((TOPIC0_WORDS, TOPIC1_WORDS)))
    topic_ids = {tid: [vocab.lookup(v) for w in words for v in chosen[w]] for tid, words in topic_words.items()}
    candidates = {tid: [vocab.lookup(" " + w) for w in words] for tid, words in topic_words.items()}
    def pick(pool: list[int], exclude: int) -> int:
        token = pool[rng.integers(len(pool))]
        while token == exclude:  # no self-loops: keeps greedy paths moving
            token = pool[rng.integers(len(pool))]
        return token

    table = rng.normal(0.0, 0.5, (size, size))
    table[:, vocab.bos_id] = SPECIAL_LOGIT
    table[:, vocab.eos_id] = SPECIAL_LOGIT
    for tid in (0, 1):
        table[:, topic_ids[tid]] = SUPPRESSED_TOPIC_LOGIT
    topic_states = {tid: set(topic_ids[tid]) for tid in (0, 1)}
    for state in range(size):
        in_topic = state in topic_states[0] or state in topic_states[1]
        filler_logit = TOPIC_STATE_FILLER_LOGIT if in_topic else FILLER_LOGIT
        table[state, pick(filler_ids, state)] = filler_logit
        for tid in (0, 1):
            token = pick(candidates[tid], state)
            probs = _BUCKET_PROBS_TOPIC if state in topic_states[tid] else _BUCKET_PROBS_FILLER
            low, high = _GAP_BUCKETS[rng.choice(len(_GAP_BUCKETS), p=probs)]
            table[state, token] = FILLER_LOGIT - rng.uniform(low, high)
    return np.round(table, 6)


def build_corpus(rng: np.random.Generator) -> list[dict]:
    samples = []
    for k in range(ARTICLES):
        words = []
        for _ in range(int(rng.integers(6, 13))):
            r = rng.random()
            if r < 0.70:
                words.append(FILLERS[rng.integers(len(FILLERS))])
            elif r < 0.85:
                words.append(TOPIC0_WORDS[rng.integers(len(TOPIC0_WORDS))])
            else:
                words.append(TOPIC1_WORDS[rng.integers(len(TOPIC1_WORDS))])
        refs = {}
        for tid, pool in ((1, TOPIC0_WORDS), (2, TOPIC1_WORDS)):
            picked = list(rng.choice(pool, size=8, replace=False))
            refs[f"ref{tid}"] = "the " + " and the ".join(picked)
        samples.append(
            {
                "article_id": f"a{k:03d}",
                "article": " ".join(words),
                "tid1": 0,
                "tid2": 1,
                **refs,
            }
        )
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="regenerate the shipped fixture files")
    parser.add_argument("--out-dir", type=Path, default=Path(__file__).resolve().parent)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(SEED)

    vocab, chosen = build_vocabulary()
    topic_model = build_topic_model()
    table = build_markov_table(vocab, chosen, rng)
    model = ToyMarkovModel(vocabulary=vocab, table=table)
    samples = build_corpus(rng)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    save_toy_model(model, args.out_dir / "toy_model.json")
    topics_payload = {
        "topics": [
            {"id": tid, "words": [[w, wt] for w, wt in topic_model.topics[tid]]}
            for tid in sorted(topic_model.topics)
        ]
    }
    (args.out_dir / "topics.json").write_text(json.dumps(topics_payload, indent=2) + "\n", encoding="utf-8")
    with open(args.out_dir / "corpus.jsonl", "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(sample) + "\n")

    print(f"vocabulary: {vocab.size} tokens; articles: {len(samples)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
