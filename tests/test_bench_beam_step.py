"""Micro-benchmark of one beam-search step: one hypothesis at a time vs one (n, V) block.

Deselected by default; run with ``PYTHONPATH=src python -m pytest -m bench
tests/test_bench_beam_step.py``. A step takes four live beams from their
provider states to the global top four successors. It is timed two ways:
as the loop ran it before steps were batched (per hypothesis: its row of ``logits_many``,
``ProcessorChain.apply``, the reference beam selector over the package's 1-D
``truncate_top_k_top_p``, then a sort of all candidates), and as the package
runs it (``logits_many``, one in-place chain rewrite, each row's survivors
record, whose norm is summed over a zero row made once, as a stepping table makes one
per call, each row's successors built from its record, and one sort of
all rows' candidates, whose sort keys hold the negated totals, as each live
beam keeps its own: ``conftest.beam_pick``, the pick of ``_decode``'s beam loop). Both must keep the
same successors with bit-equal cumulative log probabilities. The inputs are the shipped fixture
(V=226) with a shift of topic 0, and four N(0, 3) rows at V=50,000 with
threshold selection over 1,000 ids.

A second benchmark times the step's cut and build alone (``_truncate`` then
``_beam``) on four N(0, 3) rows at V=226, as one 4-row block and as four 1-row
blocks. Each row is cut alone, so numpy's per-call cost is paid per row either
way, and the two should take about the same time.
"""

import numpy as np
import pytest

import reference_decoding
import topicsteer.decoding as decoding
from conftest import beam_pick
from topicsteer.fixtures import topic_model_path, toy_model_path
from topicsteer.models import load_toy_model
from topicsteer.reweight import ReweightConfig, build_chain
from topicsteer.topics import load_topic_model, topic_token_set

CONFIG = decoding.GenerationConfig(strategy="beam", top_k=50, top_p=0.95, num_beams=4)
CUMULATIVE = [-1.5, -2.0, -2.0, -3.25]


class Rows:
    """A provider whose state is a row index into a fixed logits table."""

    def __init__(self, table):
        self.table = table

    def logits_many(self, states):
        return self.table.take(states, axis=0)


def _inputs(size):
    if size == 226:
        model = load_toy_model(toy_model_path())
        assert model.vocabulary.size == size
        token_set = topic_token_set(0, load_topic_model(topic_model_path()), model.vocabulary, 25)
        chain = build_chain(ReweightConfig(method="constant_shift", c=5.0), token_set)
        states = np.argsort(-model.table[model.vocabulary.bos_id], kind="stable")[:4].tolist()
        return model, states, chain
    rng = np.random.default_rng(0)
    chain = build_chain(ReweightConfig(method="threshold_selection", theta=1e-5, beta=1.0),
                        rng.choice(size, 1_000, replace=False).tolist())
    return Rows(rng.normal(0.0, 3.0, (4, size))), [0, 1, 2, 3], chain


def per_hypothesis_step(model, states, chain):
    candidates = []
    for source, (state, cumulative) in enumerate(zip(states, CUMULATIVE)):
        steered = chain.apply(model.logits_many([state])[0])
        for token, log_prob in reference_decoding.SELECTORS["beam"](steered, CONFIG, None):
            candidates.append((-(cumulative + log_prob), token, source))
    candidates.sort()
    return [(-score, token, source) for score, token, source in candidates[: CONFIG.num_beams]]


def block_step(model, states, chain, zeros):
    block = model.logits_many(states)
    steered = chain.bind(*block.shape)(block)
    keys = [-cumulative for cumulative in CUMULATIVE]
    successors = [decoding._beam(record, CONFIG) for record in decoding._truncate(steered, CONFIG, zeros)]
    return beam_pick(successors, keys, CONFIG.num_beams)


def _hex(kept):
    return [(float(total).hex(), token, source) for total, token, source in kept]


@pytest.mark.bench
@pytest.mark.parametrize("size", [226, 50_000])
@pytest.mark.parametrize("path", ["per_hypothesis", "block"])
def test_beam_step(benchmark, monkeypatch, size, path):
    monkeypatch.setattr(reference_decoding, "truncate_top_k_top_p", decoding.truncate_top_k_top_p)
    model, states, chain = _inputs(size)
    if path == "per_hypothesis":
        kept = benchmark(per_hypothesis_step, model, states, chain)
    else:
        zeros = np.zeros(size)
        keys = benchmark(block_step, model, states, chain, zeros)
        assert zeros.tobytes() == bytes(zeros.nbytes)
        kept = [(-key, token, source) for key, token, source in keys]
    assert len(kept) == CONFIG.num_beams
    assert _hex(kept) == _hex(per_hypothesis_step(model, states, chain))


def cut_and_build(blocks, zeros):
    return [decoding._beam(record, CONFIG) for block in blocks for record in decoding._truncate(block, CONFIG, zeros)]


@pytest.mark.bench
@pytest.mark.parametrize("rows_per_block", [4, 1])
def test_beam_cut_and_build(benchmark, rows_per_block):
    rows = np.random.default_rng(0).normal(0.0, 3.0, (4, 226))
    blocks = [rows[i: i + rows_per_block] for i in range(0, 4, rows_per_block)]
    zeros = np.zeros(226)
    built = benchmark(cut_and_build, blocks, zeros)
    assert zeros.tobytes() == bytes(zeros.nbytes)
    assert built == cut_and_build([rows], np.zeros(226))
