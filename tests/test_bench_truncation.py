"""Micro-benchmark of top-k/top-p truncation on each side of its size rule.

Deselected by default; run with ``PYTHONPATH=src python -m pytest -m bench
tests/test_bench_truncation.py``. Each vector is timed on both paths: the
full stable sort (the reference copy, which always sorts) and the block-max
bound (the package, with the size rule lowered so that it bounds even the
small vector). The full sort is faster on the shipped 226-token fixture
row, the bound on the 50,000-entry vectors. The vectors are that fixture
row, N(0, 3) logits at V=50,000, and the same logits with 1,000 ids shifted
by 5, where more than 4 * top_k entries reach the bound. On either 50,000
vector a partition of the candidates that reach the bound finds the top_k-th
best score, and only the entries above it are sorted.
"""

import numpy as np
import pytest

import reference_decoding
import topicsteer.decoding as decoding
from topicsteer.fixtures import toy_model_path
from topicsteer.models import load_toy_model

TOP_K, TOP_P = 50, 0.95


def _scores(vector):
    if vector == "fixture-226":  # a row of the shipped model: most ids share one background logit
        model = load_toy_model(toy_model_path())
        assert model.vocabulary.size == 226
        return model.next_logits([model.vocabulary.bos_id])
    rng = np.random.default_rng(0)
    scores = rng.normal(0.0, 3.0, 50_000)
    if vector == "normal-50000-shift":
        scores[rng.choice(scores.size, 1_000, replace=False)] += 5.0
        bound = scores.reshape(TOP_K, -1).max(axis=1).min()
        assert (scores >= bound).sum() > 4 * TOP_K  # many more candidates than top_k reach the bound
    return scores


@pytest.mark.bench
@pytest.mark.parametrize("vector", ["fixture-226", "normal-50000", "normal-50000-shift"])
@pytest.mark.parametrize("path", ["full_sort", "block_max"])
def test_truncate_top_k_top_p(benchmark, monkeypatch, vector, path):
    scores = _scores(vector)
    if path == "block_max":
        monkeypatch.setattr(decoding, "_BOUND_MIN_SIZE", 0)
        assert scores.size > 4 * TOP_K  # so the size rule takes the block-max bound
        truncate = decoding.truncate_top_k_top_p
    else:
        truncate = reference_decoding.truncate_top_k_top_p
    out = benchmark(truncate, scores, TOP_K, TOP_P)
    expected = reference_decoding.truncate_top_k_top_p(scores, TOP_K, TOP_P)
    assert out.tobytes() == expected.tobytes()
