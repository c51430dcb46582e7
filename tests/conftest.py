"""Shared builders for small deterministic models used across the suite."""

from __future__ import annotations

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
