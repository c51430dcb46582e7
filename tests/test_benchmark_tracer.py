"""The benchmark's tracer (perfbench/spans.py) wraps package functions by name.

A refactor that renames or stops calling one of those names breaks the traced
benchmark run; these tests make it break the test suite as well.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

import topicsteer.decoding as decoding  # noqa: E402
from topicsteer.decoding import GenerationConfig, generate  # noqa: E402

from conftest import random_markov  # noqa: E402


@pytest.mark.parametrize("owner, attr, span", spans.PATCHES,
                         ids=[f"{span}:{attr}" for _, attr, span in spans.PATCHES])
def test_patched_name_resolves(owner, attr, span):
    target = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(target), f"{span}: {owner!r} has no callable {attr!r}"


class CountingSteps:
    """Drives a toy model incrementally and counts its provider steps (rows that ``logits_many`` returns)."""

    def __init__(self, model):
        self.model = model
        self.vocabulary = model.vocabulary
        self.steps = 0

    def start(self, prefix):
        return self.model.start(prefix)

    def advance(self, state, token):
        return self.model.advance(state, token)

    def logits_many(self, states):
        self.steps += len(states)
        return self.model.logits_many(states)

    def next_logits(self, prefix):
        return self.logits_many([self.start(prefix)])[0]


def test_beam_step_selection_is_one_untraced_truncation(monkeypatch):
    # A step works on one (n, V) block of the live beams' states that the
    # decode has not met yet in this EOS phase: it truncates at most once per
    # step, below decoding.generate_beam, and not once per hypothesis. That
    # one truncation gives the nucleus mass, the weights and the beam
    # normalisers, so no step calls decoding.softmax or log_softmax and the
    # tracer sees no selection span. The 1-D truncate_top_k_top_p, which the
    # decoding.truncate span wraps, is not on the engine's path either.
    provider = CountingSteps(random_markov(5, eos_logit=-20.0))
    config = GenerationConfig(strategy="beam", num_beams=3, top_p=0.9, min_new_tokens=2, max_new_tokens=6)
    truncations = []

    def truncate(x, top_k, top_p, block=decoding._truncate):
        truncations.append(len(x))
        return block(x, top_k, top_p)

    monkeypatch.setattr(decoding, "_truncate", truncate)
    tracer = spans.Tracer(num_beams=config.num_beams)
    with tracer.installed():
        result = generate(provider, [provider.vocabulary.bos_id], None, config)
    names = [tracer.names[i] for i in tracer.arrays()["name"]]
    assert len(result.tokens) == config.max_new_tokens
    assert "decoding.generate_beam" in names
    assert "decoding.softmax" not in names and "decoding.truncate" not in names
    # the (state, EOS masked) pair of every live beam of every step, from a path that asks for each of them
    pairs = []

    class Prefixes:
        vocabulary = provider.vocabulary

        def next_logits(self, prefix):
            pairs.append((prefix[-1], len(prefix) - 1 < config.min_new_tokens))
            return provider.model.next_logits(prefix)

    monkeypatch.undo()
    assert generate(Prefixes(), [provider.vocabulary.bos_id], None, config) == result
    assert len(truncations) <= config.max_new_tokens
    assert sum(truncations) == provider.steps == len(set(pairs)) < len(pairs)
