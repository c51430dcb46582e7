"""Micro-benchmark of memo-hit decode steps, per strategy.

Deselected by default; run with ``PYTHONPATH=src python -m pytest -m bench
tests/test_bench_memo_step.py``. A decode through the shipped fixture (V=226),
steered by a shift of topic 0, first fills its chain's memo; each timed
decode repeats it through the same chain, so the provider is asked nothing.
A greedy or sampling step walks one hypothesis: one memo lookup, one pick
and one ``advance``. A beam-search step looks up each of its four live
states and picks the best four of their successors. Decodes of 1 and of 90 steps are timed:
the 1-step decode is the per-call cost, and the difference, over 89, is the
cost of one memo-hit step (``extra_info["steps"]`` holds the step count).
"""

import pytest

from topicsteer.decoding import GenerationConfig, generate
from topicsteer.fixtures import topic_model_path, toy_model_path
from topicsteer.models import load_toy_model
from topicsteer.reweight import ReweightConfig, build_chain
from topicsteer.topics import load_topic_model, topic_token_set

from test_decoding import Asked


@pytest.mark.bench
@pytest.mark.parametrize("steps", [1, 90])
@pytest.mark.parametrize("strategy", ["greedy", "sample", "beam"])
def test_memo_hit_steps(benchmark, strategy, steps):
    model = load_toy_model(toy_model_path())
    assert model.vocabulary.size == 226
    token_set = topic_token_set(0, load_topic_model(topic_model_path()), model.vocabulary, 25)
    chain = build_chain(ReweightConfig(method="constant_shift", c=5.0), token_set)
    config = GenerationConfig(strategy=strategy, num_beams=4, min_new_tokens=steps, max_new_tokens=steps, seed=3)
    provider, prefix = Asked(model), [model.vocabulary.bos_id]
    first = generate(provider, prefix, chain, config)
    assert provider.calls
    provider.calls = []
    benchmark.extra_info["steps"] = steps
    result = benchmark(generate, provider, prefix, chain, config)
    assert provider.calls == []  # every timed step was a memo hit
    assert len(result.tokens) == steps
    assert (result.tokens, result.log_prob.hex()) == (first.tokens, first.log_prob.hex())
