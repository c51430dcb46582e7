"""Micro-benchmark of the sampling and beam selectors, whole vector vs survivors.

Deselected by default; run with ``PYTHONPATH=src python -m pytest -m bench
tests/test_bench_selection.py``. Each selector is timed two ways: as it was
(the reference copy, which normalises the whole V-length truncated vector
that the package's ``truncate_top_k_top_p`` returns) and as the package runs
it (on a one-row block, over the truncation's survivors only, truncation
included). The vectors are a row of the shipped fixture (V=226) and N(0, 1)
logits at V=50,000.
"""

import numpy as np
import pytest

import reference_decoding
import topicsteer.decoding as decoding
from topicsteer.fixtures import toy_model_path
from topicsteer.models import load_toy_model

from test_decoding import one_row_selector

CONFIG = decoding.GenerationConfig(strategy="sample", top_k=50, top_p=0.95, num_beams=4)


def _scores(size):
    if size == 226:  # a row of the shipped model: most ids share one background logit
        model = load_toy_model(toy_model_path())
        assert model.vocabulary.size == size
        return model.next_logits([model.vocabulary.bos_id])
    return np.random.default_rng(0).normal(0.0, 1.0, size)


def _hex(selected):
    return [(token, float(log_prob).hex()) for token, log_prob in selected]


@pytest.mark.bench
@pytest.mark.parametrize("size", [226, 50_000])
@pytest.mark.parametrize("strategy", ["sample", "beam"])
@pytest.mark.parametrize("path", ["whole_vector", "survivors"])
def test_selector(benchmark, monkeypatch, size, strategy, path):
    monkeypatch.setattr(reference_decoding, "truncate_top_k_top_p", decoding.truncate_top_k_top_p)
    scores = _scores(size)
    reference = reference_decoding.SELECTORS[strategy]
    select = reference if path == "whole_vector" else one_row_selector(strategy)
    benchmark(select, scores, CONFIG, np.random.default_rng(0))
    for seed in range(20):
        got = select(scores, CONFIG, np.random.default_rng(seed))
        assert _hex(got) == _hex(reference(scores, CONFIG, np.random.default_rng(seed)))
