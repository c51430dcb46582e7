"""Micro-benchmark of the ROUGE-L LCS length: the quadratic table vs the bit-parallel one.

Deselected by default; run with ``PYTHONPATH=src python -m pytest -m bench
tests/test_bench_scoring.py``. The LCS length is timed two ways: as it was
(the reference copy's rolling-row table, one cell per stem pair) and as the
package computes it (one integer bit mask per reference stem, a few integer
operations per summary stem). Both must return the same length. The pairs
are a fixture row, the greedy summary of the first shipped article under a
shift of its first topic (90 stems) against that topic's reference (23
stems), and a longer seeded pair of 120 x 70 stems drawn from the fixture's
vocabulary, whose masks are wider than 64 bits.
"""

import numpy as np
import pytest

import reference_scoring
from topicsteer.decoding import GenerationConfig, generate
from topicsteer.experiment import load_corpus
from topicsteer.fixtures import corpus_path, topic_model_path, toy_model_path
from topicsteer.models import load_toy_model
from topicsteer.reweight import ReweightConfig, build_chain
from topicsteer.scoring import _lcs_length, tokenize_words
from topicsteer.stemmer import stem
from topicsteer.topics import load_topic_model, topic_token_set


def _stems(text):
    return [stem(w) for w in tokenize_words(text)]


def _pair(kind):
    model = load_toy_model(toy_model_path())
    vocab = model.vocabulary
    if kind == "fixture":
        sample = load_corpus(corpus_path(), limit=1)[0]
        token_set = topic_token_set(sample.tid1, load_topic_model(topic_model_path()), vocab)
        chain = build_chain(ReweightConfig(method="constant_shift", c=5.0), token_set)
        result = generate(model, sample.prompt(vocab), chain, GenerationConfig())
        return _stems(vocab.decode(result.tokens)), _stems(sample.ref1)
    words = sorted({stem(w) for token in vocab.tokens for w in tokenize_words(token)})
    rng = np.random.default_rng(0)
    return [str(w) for w in rng.choice(words, 120)], [str(w) for w in rng.choice(words, 70)]


@pytest.mark.bench
@pytest.mark.parametrize("kind, sizes", [("fixture", (90, 23)), ("long", (120, 70))])
@pytest.mark.parametrize("path", ["table", "bit_parallel"])
def test_lcs_length(benchmark, kind, sizes, path):
    a, b = _pair(kind)
    assert (len(a), len(b)) == sizes
    lcs = reference_scoring._lcs_length if path == "table" else _lcs_length
    assert benchmark(lcs, a, b) == reference_scoring._lcs_length(a, b)
