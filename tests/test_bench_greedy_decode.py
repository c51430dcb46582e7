"""Micro-benchmark of a cold greedy decode, through a provider with ``start`` and through one with only ``next_logits``.

Deselected by default; run with ``PYTHONPATH=src python -m pytest -m bench
tests/test_bench_greedy_decode.py``. Each timed call is the first decode
through a fresh chain (method none) of a seeded 12-id prompt, with EOS masked
for 80 of 90 tokens. At V=226 the model is the shipped fixture; at V=50,000
it is ``perfbench``'s seeded ``HashedStateProvider``, given a ``start`` half
whose state is the last id modulo its state count. Through ``start`` greedy
search makes both EOS phases' successors from each row it asks for, so a
state met in both phases is asked for once, and each row costs one more
V-wide sum; through ``next_logits`` alone (the ``_PrefixStates`` adapter)
each step asks for its prefix, and no row pays for the other phase. Both
must give the same tokens and log prob. ``extra_info["rows"]`` holds the
rows the timed decode asked for.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from topicsteer.decoding import GenerationConfig, generate
from topicsteer.fixtures import toy_model_path
from topicsteer.models import Vocabulary, load_toy_model
from topicsteer.reweight import ProcessorChain

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import synth  # noqa: E402

CONFIG = GenerationConfig(strategy="greedy", min_new_tokens=80, max_new_tokens=90)


class Counted:
    """A model seen through ``start`` (``logits_many``) or ``next_logits`` alone, counting the rows it gives."""

    def __init__(self, model, half):
        self.model, self.vocabulary, self.rows = model, model.vocabulary, 0
        if half == "start":
            self.start, self.advance, self.logits_many = model.start, model.advance, self.many
        else:
            self.next_logits = self.one

    def many(self, states):
        self.rows += len(states)
        return self.model.logits_many(states)

    def one(self, prefix):
        self.rows += 1
        return self.model.next_logits(prefix)


class HashedStates(synth.HashedStateProvider):
    """The benchmark's large-vocabulary provider with a ``start`` half: the state is the last id modulo ``states``."""

    def start(self, prefix):
        return self.vocabulary.validate_ids(prefix)[-1] % self.states

    def advance(self, state, token):
        return token % self.states

    def logits_many(self, states):
        return np.stack([self.row(state) for state in states])


def _model(size, tmp_path):
    if size == 226:
        return load_toy_model(toy_model_path())
    raw = synth.make_large_vocab(1, tmp_path)
    vocabulary = Vocabulary.from_tokens(raw["tokens"], bos="<s>", eos="</s>")
    return HashedStates(vocabulary, raw["background"], raw["override_ids"], raw["override_values"])


@pytest.mark.bench
@pytest.mark.parametrize("size", [226, 50_000])
@pytest.mark.parametrize("half", ["start", "next_logits"])
def test_cold_greedy_decode(benchmark, tmp_path, size, half):
    model = _model(size, tmp_path)
    assert model.vocabulary.size == size
    prefix = [model.vocabulary.bos_id, *np.random.default_rng(12).integers(2, size, 11).tolist()]
    expected = generate(Counted(model, "next_logits"), prefix, None, CONFIG)
    providers = []

    def setup():
        providers.append(Counted(model, half))
        return (providers[-1], prefix, ProcessorChain(), CONFIG), {}

    result = benchmark.pedantic(generate, setup=setup, rounds=10)
    benchmark.extra_info["rows"] = providers[-1].rows
    assert (result.tokens, result.log_prob.hex()) == (expected.tokens, expected.log_prob.hex())
    if half == "start":  # each state once, across both phases (EOS never leads here)
        assert providers[-1].rows < len(result.tokens) == CONFIG.max_new_tokens
    else:
        assert providers[-1].rows == len(result.tokens)
