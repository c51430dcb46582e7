"""The benchmark's tracer (perfbench/spans.py) wraps package functions by name.

A refactor that renames or stops calling one of those names breaks the traced
benchmark run; these tests make it break the test suite as well.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

from topicsteer.decoding import GenerationConfig, generate  # noqa: E402

from conftest import random_markov  # noqa: E402


@pytest.mark.parametrize("owner, attr, span", spans.PATCHES,
                         ids=[f"{span}:{attr}" for _, attr, span in spans.PATCHES])
def test_patched_name_resolves(owner, attr, span):
    target = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(target), f"{span}: {owner!r} has no callable {attr!r}"


class CountingSteps:
    """Drives a toy model incrementally and counts its provider steps (``logits`` calls)."""

    def __init__(self, model):
        self.model = model
        self.vocabulary = model.vocabulary
        self.steps = 0

    def start(self, prefix):
        return self.model.start(prefix)

    def advance(self, state, token):
        return self.model.advance(state, token)

    def logits(self, state):
        self.steps += 1
        return self.model.logits(state)

    def next_logits(self, prefix):
        return self.logits(self.start(prefix))


def test_beam_truncation_spans_sit_under_generate_beam():
    # The beam candidate count is taken from truncate spans whose parent
    # span is decoding.generate_beam, so the loop must call
    # truncate_top_k_top_p through the module global, below generate_beam,
    # once per provider step.
    provider = CountingSteps(random_markov(5, eos_logit=-20.0))
    config = GenerationConfig(strategy="beam", num_beams=3, min_new_tokens=2, max_new_tokens=4)
    tracer = spans.Tracer(num_beams=config.num_beams)
    with tracer.installed():
        generate(provider, [provider.vocabulary.bos_id], None, config)
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    parents = [names[p] for p in a["parent"][[n == "decoding.truncate" for n in names]]]
    assert parents and set(parents) == {"decoding.generate_beam"}
    assert provider.steps > config.num_beams
    assert len(parents) == provider.steps
