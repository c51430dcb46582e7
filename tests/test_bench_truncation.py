"""Micro-benchmark of top-k/top-p truncation on each side of its size rule.

Deselected by default; run with ``PYTHONPATH=src python -m pytest -m bench
tests/test_bench_truncation.py``. Each vocabulary size is timed on both
paths: the full stable sort (the reference copy, which always sorts) and
partial selection (the package, with the size rule lowered so that it
selects even the small vector). The full sort is faster on the shipped
226-token fixture row, partial selection on the 50,000-entry vector.
"""

import numpy as np
import pytest

import reference_decoding
import topicsteer.decoding as decoding
from topicsteer.fixtures import toy_model_path
from topicsteer.models import load_toy_model

TOP_K, TOP_P = 50, 0.95


def _scores(size):
    if size == 226:  # a row of the shipped model: most ids share one background logit
        model = load_toy_model(toy_model_path())
        assert model.vocabulary.size == size
        return model.next_logits([model.vocabulary.bos_id])
    return np.random.default_rng(0).normal(0.0, 3.0, size)


@pytest.mark.bench
@pytest.mark.parametrize("size", [226, 50_000])
@pytest.mark.parametrize("path", ["full_sort", "partition"])
def test_truncate_top_k_top_p(benchmark, monkeypatch, size, path):
    scores = _scores(size)
    if path == "partition":
        monkeypatch.setattr(decoding, "_PARTITION_MIN_SIZE", 0)
        assert size > 4 * TOP_K  # so the size rule takes partial selection
        truncate = decoding.truncate_top_k_top_p
    else:
        truncate = reference_decoding.truncate_top_k_top_p
    out = benchmark(truncate, scores, TOP_K, TOP_P)
    expected = reference_decoding.truncate_top_k_top_p(scores, TOP_K, TOP_P)
    assert out.tobytes() == expected.tobytes()
