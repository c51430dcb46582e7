"""Shared builders for small deterministic models used across the suite."""

from __future__ import annotations

import math
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from topicsteer.models import ToyMarkovModel, Vocabulary
from topicsteer.topics import TopicModel

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _acceptance_outcomes[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[name].upper()
        terminalreporter.write_line(f"{'PASS' if outcome == 'PASSED' else outcome:>6s}  {name}")


def readme_block(language: str, after: str) -> str:
    """The first fenced ``language`` block of README.md after the text ``after``, so its examples run as tests."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = text.index(f"```{language}\n", text.index(after)) + len(language) + 4
    return text[start:text.index("```", start)]


def beam_pick(successors: list, keys: list[float], num_beams: int) -> list[tuple[float, int, int]]:
    """Beam search's pick as ``decoding._decode``'s beam loop makes it, for tests that take one step by hand.

    Each live row's successors (``decoding._beam``), extended from that row's
    sort key (its negated cumulative log prob), as (key - log prob, token,
    source row); all of them sorted, the first num_beams kept.
    """
    candidates = [(key - log_prob, token, source)
                  for source, (key, pairs) in enumerate(zip(keys, successors)) for log_prob, token in pairs]
    candidates.sort()
    return candidates[:num_beams]


def walk_pick(successors, key: float, uniform: float | None) -> tuple[float, int]:
    """Greedy's or sampling's pick as ``decoding._decode``'s walk makes it inline, for tests that take one step by hand.

    The one hypothesis's sort key (its negated cumulative log prob) extended
    by its pick, as (key - log prob, token). Greedy's successors are one
    (log prob, token), taken as they are (``uniform`` None); sampling's
    (ids, probs, cumulative probs) are drawn from by ``uniform`` through the
    inverse CDF, a draw past the last sum taking the last id of positive
    probability.
    """
    if uniform is None:
        log_prob, token = successors
    else:
        ids, probs, cdf = successors
        index = bisect_right(cdf, uniform)
        if index == len(probs):
            index = max(i for i, prob in enumerate(probs) if prob > 0.0)
        log_prob, token = math.log(probs[index]), ids[index]
    return key - log_prob, token


def assert_batch_invariant(provider, next_logits, prefixes: list, width: int, blocks: int = 20, seed: int = 0) -> None:
    """Each row ``provider.logits_many`` gives equals ``next_logits`` of its state's prefix, byte for byte, in any block.

    A prefix's state is ``provider.start`` of a leading part of it, advanced
    through the rest. For every block size from 1 to ``width``, ``blocks``
    blocks of distinct states are asked for in seeded shuffled orders, so a
    row must not depend on the block's size (n = 1 included), on its other
    states or on their order: the provider contract's batch invariance.
    """
    rng = np.random.default_rng(seed)
    states = []
    for prefix in prefixes:
        cut = int(rng.integers(1, len(prefix) + 1))
        state = provider.start(prefix[:cut])
        for token in prefix[cut:]:
            state = provider.advance(state, token)
        states.append(state)
    expected = [np.asarray(next_logits(prefix), dtype=np.float64).tobytes() for prefix in prefixes]
    for size in range(1, width + 1):
        for _ in range(blocks):
            picked = rng.permutation(len(prefixes))[:size].tolist()
            block = provider.logits_many([states[i] for i in picked])
            assert block.dtype == np.float64 and len(block) == size
            for row, i in zip(block, picked):
                assert row.tobytes() == expected[i], f"row of prefix {prefixes[i]} in a block of {size}"


def make_vocab(n_words: int = 4) -> Vocabulary:
    """Vocabulary of <s>, </s> and n generic word tokens w0..w(n-1)."""
    tokens = ["<s>", "</s>"] + [f"w{i}" for i in range(n_words)]
    return Vocabulary.from_tokens(tokens, bos="<s>", eos="</s>")


def make_markov(vocab: Vocabulary, table=None, seed: int = 0, scale: float = 1.5) -> ToyMarkovModel:
    """Toy model with the given table, or a seeded random one."""
    if table is None:
        rng = np.random.default_rng(seed)
        table = rng.normal(0.0, scale, (vocab.size, vocab.size))
        table[:, vocab.bos_id] = -25.0
    return ToyMarkovModel(vocabulary=vocab, table=np.asarray(table, dtype=np.float64))


def random_markov(seed: int, n_words: int = 4, eos_logit: float | None = None) -> ToyMarkovModel:
    """Random small model; optionally pin the EOS column."""
    vocab = make_vocab(n_words)
    rng = np.random.default_rng(seed)
    table = rng.normal(0.0, 1.5, (vocab.size, vocab.size))
    table[:, vocab.bos_id] = -25.0
    if eos_logit is not None:
        table[:, vocab.eos_id] = eos_logit
    return ToyMarkovModel(vocabulary=vocab, table=table)


@pytest.fixture
def court_topics() -> TopicModel:
    """Two tiny topics sharing the word 'case' with different weights."""
    return TopicModel(
        topics={
            0: (("court", 0.6), ("judge", 0.4), ("case", 0.2)),
            1: (("rocket", 0.5), ("orbit", 0.3), ("case", 0.1)),
        }
    )
