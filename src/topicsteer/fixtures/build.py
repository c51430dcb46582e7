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
flips only under a shift of 5, never flips. The builder re-runs the steering
trend end to end and refuses to write fixtures that do not exhibit it: one
greedy decode per article at each shift of topic 0, scored against both
topics, and one 4-beam decode at shift 5.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..decoding import GenerationConfig, generate
from ..models import ToyMarkovModel, Vocabulary, save_toy_model
from ..reweight import ReweightConfig, build_chain
from ..scoring import token_topic_score
from ..stemmer import stem
from ..topics import TopicModel, _capitalize, expand_word, topic_token_set

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
GENERATION = GenerationConfig(strategy="greedy", min_new_tokens=80, max_new_tokens=90)


def _variant_candidates(word: str) -> list[str]:
    """Deterministic preference order for a word's surface-form tokens."""
    s = stem(word)
    ordered = [
        " " + word, word,
        " " + _capitalize(word), _capitalize(word),
        " " + s, s,
        " " + _capitalize(s), _capitalize(s),
    ]
    seen: set[str] = set()
    return [v for v in ordered if not (v in seen or seen.add(v))]


def build_vocabulary() -> tuple[Vocabulary, dict[str, list[str]]]:
    chosen: dict[str, list[str]] = {}
    tokens: list[str] = ["<s>", "</s>"] + [" " + f for f in FILLERS]
    for words in (TOPIC0_WORDS, TOPIC1_WORDS):
        for i, word in enumerate(words):
            count = _VARIANT_PATTERN[i % 3]
            candidates = _variant_candidates(word)
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


def build_markov_table(vocab: Vocabulary, chosen: dict[str, list[str]], rng: np.random.Generator) -> np.ndarray:
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


def verify(model: ToyMarkovModel, topic_model: TopicModel, samples: list[dict]) -> dict:
    """Re-run the fixture's contract checks; raises AssertionError on failure."""
    vocab = model.vocabulary
    tsets = [topic_token_set(tid, topic_model, vocab, top_n=25) for tid in (0, 1)]
    for tset, words in zip(tsets, (TOPIC0_WORDS, TOPIC1_WORDS)):
        if not 75 <= len(tset) <= 125:
            raise AssertionError(f"topic {tset.topic_id}: token set size {len(tset)} outside [75, 125]")
        for word in words:
            matches = sum(1 for v in expand_word(word).variants if vocab.lookup(v) is not None)
            if not 3 <= matches <= 5:
                raise AssertionError(f"{word!r} matches {matches} tokens, outside [3, 5]")
            if stem(stem(word)) != stem(word):
                raise AssertionError(f"stem of {word!r} is not idempotent")

    prefixes = [[vocab.bos_id, *vocab.encode_words(s["article"])] for s in samples]
    if any(len(p) < 2 for p in prefixes):
        raise AssertionError("an article encodes to an empty prefix")

    def steered_means(shift: float, config: GenerationConfig = GENERATION) -> list[float]:
        """Mean token-topic score of each topic over the corpus, with topic 0 shifted by ``shift``."""
        chain = build_chain(ReweightConfig(method="constant_shift", c=shift), tsets[0])
        scores: list[list[float]] = [[], []]
        for prefix in prefixes:
            result = generate(model, prefix, chain, config)
            content = [t for t in result.tokens if not vocab.is_special(t)]
            for tset, topic_scores in zip(tsets, scores):
                topic_scores.append(token_topic_score(content, tset))
        return [float(np.mean(topic_scores)) for topic_scores in scores]

    greedy = {c: steered_means(c) for c in (0.0, 2.0, 5.0)}
    means = {c: on_topic for c, (on_topic, _off_topic) in greedy.items()}
    beam_mean = steered_means(5.0, replace(GENERATION, strategy="beam", num_beams=4))[0]
    if not (means[0.0] + 0.02 < means[2.0] and means[2.0] + 0.02 < means[5.0]):
        raise AssertionError(f"steering trend not strictly increasing: {means}")
    if beam_mean < means[5.0]:
        raise AssertionError(f"beam mean {beam_mean} below greedy mean {means[5.0]} at shift 5")
    # steering one topic must not drag the other one up
    off_topic = greedy[5.0][1]
    if not off_topic < means[5.0]:
        raise AssertionError("steered topic does not dominate the unsteered one")

    return {"greedy_means": means, "beam_mean_at_5": beam_mean, "off_topic_mean_at_5": off_topic}


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

    stats = verify(model, topic_model, samples)

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
    print(f"greedy steered means by shift: {stats['greedy_means']}")
    print(f"beam(4) steered mean at shift 5: {stats['beam_mean_at_5']:.4f}")
    print(f"unsteered-topic mean at shift 5: {stats['off_topic_mean_at_5']:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
