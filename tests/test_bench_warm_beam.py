"""Micro-benchmark of a cold beam-search decode through a chain that a sampling decode has warmed.

Deselected by default; run with ``PYTHONPATH=src python -m pytest -m bench
tests/test_bench_warm_beam.py``. The shipped fixture (V=226), steered by a
shift of topic 0, decodes a seeded 1,500-id prompt. Each timed call is the
first beam-search decode through its chain. With ``warmed``, a sampling decode
of the same prompt, top_k and top_p went through the chain first, untimed, so
the beam decode builds the successors of the states sampling met from their
survivors records and asks the provider only for the others. With ``fresh``
the chain is new and the decode asks for every state it meets. Both must give
the same tokens and log prob, and the warmed decode must ask for fewer rows.
Neither asks for a state whose survivors record serves both EOS phases
twice, and the warmed one asks for none that the sampling decode kept such a
record for (``decoding._StepTable``). ``extra_info["rows"]`` holds the rows the
timed decode asked for.
"""

import numpy as np
import pytest

from topicsteer.decoding import GenerationConfig, generate
from topicsteer.fixtures import topic_model_path, toy_model_path
from topicsteer.models import load_toy_model
from topicsteer.reweight import ReweightConfig, build_chain
from topicsteer.topics import load_topic_model, topic_token_set

from test_decoding import Asked

BEAM = GenerationConfig(strategy="beam")
SAMPLE = GenerationConfig(strategy="sample", seed=7)


@pytest.mark.bench
@pytest.mark.parametrize("chain", ["fresh", "warmed"])
def test_cold_beam_decode(benchmark, chain):
    model = load_toy_model(toy_model_path())
    assert model.vocabulary.size == 226
    token_set = topic_token_set(0, load_topic_model(topic_model_path()), model.vocabulary, 25)
    method = ReweightConfig(method="constant_shift", c=5.0)
    prefix = [model.vocabulary.bos_id, *np.random.default_rng(25).integers(2, 226, 1_499).tolist()]
    providers = []

    def setup(warmed):
        provider, steer = Asked(model), build_chain(method, token_set)
        if warmed:
            generate(provider, prefix, steer, SAMPLE)
            provider.calls = []
        providers.append(provider)
        return (provider, prefix, steer, BEAM), {}

    def both_phases(args, config):
        """The states whose survivors record both EOS phases keep, one record object under each, in ``config``'s table."""
        table = args[2]._memo[(id(args[0]), config.strategy, config.top_k, config.top_p, config.num_beams)]
        masked, unmasked = table.records[True], table.records[False]
        return {state for state, record in masked.items() if unmasked.get(state) is record}

    def rows(warmed):
        args, _ = setup(warmed)
        kept = both_phases(args, SAMPLE) if warmed else set()  # the records sampling kept for both phases
        result = generate(*args)
        asked = [state for call in providers[-1].calls for state in call]
        both = both_phases(args, BEAM)
        assert both and not kept & set(asked)
        assert all(asked.count(state) == 1 for state in asked if state in both)
        return result, len(asked)

    (fresh, fresh_rows), (warm, warm_rows) = rows(False), rows(True)
    assert (warm.tokens, warm.log_prob.hex()) == (fresh.tokens, fresh.log_prob.hex())
    assert warm_rows < fresh_rows
    result = benchmark.pedantic(generate, setup=lambda: setup(chain == "warmed"), rounds=20)
    benchmark.extra_info["rows"] = sum(map(len, providers[-1].calls))
    assert benchmark.extra_info["rows"] == (warm_rows if chain == "warmed" else fresh_rows)
    assert (result.tokens, result.log_prob.hex()) == (fresh.tokens, fresh.log_prob.hex())
