"""Every provider the tests and the benchmark decode through is batch invariant.

The stepping table keeps a state's successors for later decodes, sampling and
beam search share its survivors records, and greedy search makes both EOS
phases' successors from one row; so a row's bits must not depend on the
block it was asked in (``models.LogitsProvider``). ``conftest.assert_batch_invariant``
asks each provider for drawn states in blocks of 1 to ``width`` rows, in
shuffled orders, and compares every row with ``next_logits`` by bytes.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from topicsteer.decoding import _PrefixStates
from topicsteer.fixtures import toy_model_path
from topicsteer.models import Vocabulary, load_toy_model

from conftest import assert_batch_invariant

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import synth  # noqa: E402

WIDTH = 4  # the default num_beams, the widest block a decode asks for


def _prefixes(size: int, count: int, seed: int) -> list[list[int]]:
    """``count`` seeded prefixes of 1-12 ids in [2, size), after BOS (id 0)."""
    rng = np.random.default_rng(seed)
    return [[0, *rng.integers(2, size, int(rng.integers(0, 12))).tolist()] for _ in range(count)]


def test_toy_markov_model_rows_are_batch_invariant():
    model = load_toy_model(toy_model_path())
    prefixes = _prefixes(model.vocabulary.size, 40, 1)
    assert_batch_invariant(model, model.next_logits, prefixes, WIDTH)


def test_prefix_adapter_over_the_toy_model_is_batch_invariant():
    model = load_toy_model(toy_model_path())
    prefixes = _prefixes(model.vocabulary.size, 40, 2)
    assert_batch_invariant(_PrefixStates(model, WIDTH), model.next_logits, prefixes, WIDTH)


def test_prefix_adapter_over_the_large_vocabulary_benchmark_provider_is_batch_invariant(tmp_path):
    raw = synth.make_large_vocab(1, tmp_path)
    vocabulary = Vocabulary.from_tokens(raw["tokens"], bos="<s>", eos="</s>")
    model = synth.HashedStateProvider(vocabulary, raw["background"], raw["override_ids"], raw["override_values"])
    prefixes = _prefixes(vocabulary.size, 12, 3)
    assert_batch_invariant(_PrefixStates(model, WIDTH), model.next_logits, prefixes, WIDTH, blocks=5)


class Skewed:
    """The toy model with the last bit of some rows moved: those of blocks of more than one row, or all but a block's first."""

    def __init__(self, model, skew):
        self.model, self.skew = model, skew
        self.start, self.advance = model.start, model.advance

    def logits_many(self, states):
        block = self.model.logits_many(states)
        moved = block[1:] if self.skew == "order" else block if len(states) > 1 else block[:0]
        moved[:] = np.nextafter(moved, np.inf)
        return block


@pytest.mark.parametrize("skew", ["size", "order"])
def test_a_row_that_depends_on_its_block_is_rejected(skew):
    model = load_toy_model(toy_model_path())
    with pytest.raises(AssertionError, match="in a block of [2-4]"):
        assert_batch_invariant(Skewed(model, skew), model.next_logits, _prefixes(model.vocabulary.size, 40, 4), WIDTH)
