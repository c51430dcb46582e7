"""Micro-benchmark of one report row whose decode is already shared.

Deselected by default; run with ``PYTHONPATH=src python -m pytest -m bench
tests/test_bench_run_row.py``. On the shipped fixture (V=226), the greedy and
beam search rows of method ``none`` read no topic, so a sweep decodes them once
per article and scores that decode for both topics. Each timed
``RowContext.run_row`` call is such a second row: it finds its decode in its
context and calls ``generate`` not at all, so it times the row path's own cost
(the topic sets, the row's generation setting, the decode key and its lookup).
The context keeps that row's scores too, so every call but the first also
finds its scores (``tests/test_bench_row_scoring.py`` times scoring a row).
"""

import pytest

from topicsteer import experiment
from topicsteer.decoding import GenerationConfig
from topicsteer.experiment import Condition, RowContext, load_corpus
from topicsteer.fixtures import corpus_path, topic_model_path, toy_model_path
from topicsteer.models import load_toy_model
from topicsteer.reweight import ReweightConfig
from topicsteer.topics import load_topic_model


def _no_decode(*args):
    raise AssertionError("a shared row called generate")


@pytest.mark.bench
@pytest.mark.parametrize("strategy", ["greedy", "beam"])
def test_shared_decode_row(benchmark, monkeypatch, strategy):
    model = load_toy_model(toy_model_path())
    assert model.vocabulary.size == 226
    topic_model = load_topic_model(topic_model_path())
    sample = load_corpus(corpus_path(), limit=1)[0]
    condition = Condition(f"{strategy}-none", ReweightConfig(), GenerationConfig(strategy=strategy))
    context = RowContext(model, topic_model, top_n=25, master_seed=1)
    first, _row = context.run_row(sample, condition, sample.tid1)
    monkeypatch.setattr(experiment, "generate", _no_decode)
    result, row = benchmark(context.run_row, sample, condition, sample.tid2)
    assert result is first
    assert row["steered_tid"] == str(sample.tid2)
