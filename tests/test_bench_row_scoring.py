"""Micro-benchmark of scoring one report row: a summary the context has scored vs scoring it afresh.

Deselected by default; run with ``PYTHONPATH=src python -m pytest -m bench
tests/test_bench_row_scoring.py``. On the shipped fixture (V=226), the first
article's greedy row under a shift of 5 toward its first topic runs once
through a ``RowContext``, which keeps its decode and its scores. The timed
``cached`` call is that row again: it calls neither ``generate`` nor
``score_summary``. The timed ``score_summary`` call scores the same decode
the way each row did before the context kept scores: ``score_summary`` then
``report_row``. Both must give the same CSV row.
"""

import pytest

from topicsteer import experiment
from topicsteer.decoding import GenerationConfig
from topicsteer.experiment import Condition, RowContext, load_corpus
from topicsteer.fixtures import corpus_path, topic_model_path, toy_model_path
from topicsteer.models import load_toy_model
from topicsteer.reweight import ReweightConfig
from topicsteer.scoring import report_row, score_summary
from topicsteer.topics import load_topic_model


def _not_called(*args, **kwargs):
    raise AssertionError("a cached row decoded or scored")


@pytest.mark.bench
@pytest.mark.parametrize("path", ["cached", "score_summary"])
def test_row_scoring(benchmark, monkeypatch, path):
    model = load_toy_model(toy_model_path())
    assert model.vocabulary.size == 226
    topic_model = load_topic_model(topic_model_path())
    sample = load_corpus(corpus_path(), limit=1)[0]
    condition = Condition("shift5", ReweightConfig(method="constant_shift", c=5.0), GenerationConfig())
    context = RowContext(model, topic_model, top_n=25, master_seed=1)
    result, first = context.run_row(sample, condition, sample.tid1)
    if path == "cached":
        monkeypatch.setattr(experiment, "generate", _not_called)
        monkeypatch.setattr(experiment, "score_summary", _not_called)
        again, row = benchmark(context.run_row, sample, condition, sample.tid1)
        assert again is result
    else:
        row = benchmark(lambda: report_row(score_summary(
            result, article_id=sample.article_id, condition=condition.label, steered_tid=sample.tid1,
            topics=(sample.tid1, sample.tid2), references=(sample.ref1, sample.ref2),
            model=topic_model, vocab=model.vocabulary, top_n=25, token_sets=context._token_sets)))
    assert row == first
