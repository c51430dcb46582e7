"""Acceptance suite: one test per shipped-contract criterion.

Each criterion is checked at its stated tolerance; a summary line per
criterion is printed at the end of the pytest run (see conftest).
"""

import csv
import itertools
import json
import time
from dataclasses import replace

import mpmath
import numpy as np

from topicsteer import fixtures
from topicsteer.decoding import GenerationConfig, generate_beam, generate_greedy, generate_sample
from topicsteer.experiment import Condition, ExperimentConfig, load_corpus, run_sweep
from topicsteer.models import load_toy_model, log_softmax, softmax
from topicsteer.reweight import (
    ReweightConfig,
    apply_reweight,
    build_chain,
    constant_shift,
    factor_scaling,
    threshold_selection,
)
from topicsteer.scoring import lemma_topic_score, rouge_l_f1, token_topic_score
from topicsteer.topics import TopicModel, expand_word, load_topic_model, topic_token_set
from topicsteer.stemmer import stem

from conftest import make_markov, make_vocab, random_markov


def random_vector_and_topic(rng, low=-8.0, high=8.0):
    size = int(rng.integers(2, 50))
    scores = rng.uniform(low, high, size)
    n_topic = int(rng.integers(1, size))
    topic = {int(t) for t in rng.choice(size, size=n_topic, replace=False)}
    return scores, topic


def test_01_reweighting_identities():
    """c=0, alpha=1, theta=1 and method none are exact identities; non-topic
    entries are bit-identical under every method. 1,000 random vectors."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        scores, topic = random_vector_and_topic(rng)
        assert np.array_equal(constant_shift(scores, topic, 0.0), scores)
        assert np.array_equal(factor_scaling(scores, topic, 1.0), scores)
        assert np.array_equal(threshold_selection(scores, topic, 1.0, rng.uniform(0, 5)), scores)
        assert np.array_equal(apply_reweight(scores, topic, ReweightConfig(method="none")), scores)
        others = np.array([i for i in range(scores.size) if i not in topic], dtype=int)
        for out in (
            constant_shift(scores, topic, rng.uniform(-10, 10)),
            factor_scaling(scores, topic, rng.uniform(-3, 3)),
            threshold_selection(scores, topic, rng.uniform(0, 1), rng.uniform(0, 5)),
        ):
            assert np.array_equal(out[others], scores[others])
    assert time.perf_counter() - start < 1.0


def test_02_shift_monotonicity():
    """Softmax probability of a topic token strictly increases across
    c in {-5,-2,0,2,5,10}. 100 random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(100):
        scores, topic = random_vector_and_topic(rng)
        token = int(rng.choice(sorted(topic)))
        probs = [softmax(constant_shift(scores, topic, c))[token] for c in (-5, -2, 0, 2, 5, 10)]
        assert all(a < b for a, b in zip(probs, probs[1:]))
    assert time.perf_counter() - start < 1.0


def test_03_scaling_sign_law():
    """On all-negative vectors alpha=0.5 strictly raises the topic token's
    probability and alpha=2 strictly lowers it; mirrored on all-positive
    vectors. 100 random instances each."""
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    for sign in (-1.0, 1.0):
        for _ in range(100):
            size = int(rng.integers(2, 50))
            scores = sign * rng.uniform(0.3, 6.0, size)
            token = int(rng.integers(size))
            topic = {token}
            base = softmax(scores)[token]
            halved = softmax(factor_scaling(scores, topic, 0.5))[token]
            doubled = softmax(factor_scaling(scores, topic, 2.0))[token]
            if sign < 0:
                assert halved > base > doubled
            else:
                assert doubled > base > halved
    assert time.perf_counter() - start < 1.0


def softmax_oracle(scores):
    """High-precision softmax, independent of the implementation's path."""
    with mpmath.workdps(50):
        exps = [mpmath.exp(mpmath.mpf(float(x))) for x in scores]
        total = mpmath.fsum(exps)
        return [e / total for e in exps]


def test_04_threshold_semantics():
    """With beta>0 the boosted set is exactly the topic tokens whose original
    softmax clears theta; boosts equal max+beta; sets grow as theta drops
    through {0.2, 0.05, 0.005, 0}. 100 random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    thetas = (0.2, 0.05, 0.005, 0.0)
    for _ in range(100):
        scores, topic = random_vector_and_topic(rng)
        beta = float(rng.uniform(0.1, 4.0))
        oracle = softmax_oracle(scores)
        peak_plus = np.max(scores) + beta
        previous: set[int] = set()
        for theta in thetas:
            out = threshold_selection(scores, topic, theta, beta)
            boosted = {i for i in range(scores.size) if out[i] != scores[i]}
            expected = {i for i in topic if oracle[i] >= theta}
            assert boosted == expected
            for i in boosted:
                assert out[i] == peak_plus
            assert previous <= boosted
            previous = boosted
    assert time.perf_counter() - start < 1.0


def test_05_decoding_oracles():
    """1-beam beam search reproduces greedy on 50 toy fixtures; a 9-beam
    search on a 3-word, 2-step fixture equals exhaustive enumeration."""
    start = time.perf_counter()
    for seed in range(50):
        model = random_markov(seed, n_words=3 + seed % 5)
        prefix = [model.vocabulary.bos_id]
        config = GenerationConfig(
            strategy="beam", num_beams=1, min_new_tokens=0, max_new_tokens=6,
            top_k=model.vocabulary.size, top_p=1.0,
        )
        greedy = generate_greedy(
            model, prefix, None,
            GenerationConfig(strategy="greedy", min_new_tokens=0, max_new_tokens=6),
        )
        assert generate_beam(model, prefix, None, config).tokens == greedy.tokens

    vocab = make_vocab(3)  # <s> </s> w0 w1 w2
    rng = np.random.default_rng(50)
    table = rng.normal(0.0, 1.5, (5, 5))
    table[:, vocab.bos_id] = -100.0
    model = make_markov(vocab, table)
    config = GenerationConfig(
        strategy="beam", num_beams=9, min_new_tokens=2, max_new_tokens=2, top_k=5, top_p=1.0
    )
    result = generate_beam(model, [vocab.bos_id], None, config)

    def sequence_log_prob(seq):
        state = [vocab.bos_id]
        total = 0.0
        for token in seq:
            logits = model.next_logits(state)
            logits[vocab.eos_id] = -np.inf  # below the minimum length
            total += float(log_softmax(logits)[token])
            state.append(token)
        return total

    words = [2, 3, 4]
    best = max(itertools.product(words, repeat=2), key=sequence_log_prob)
    assert result.tokens == best
    assert time.perf_counter() - start < 1.0


def test_06_sampling_correctness():
    """top_k=1 sampling equals greedy; masked tokens never appear in 10,000
    draws; uniform two-token logits land in [0.48, 0.52] over 10,000 draws."""
    start = time.perf_counter()
    for seed in range(10):
        model = random_markov(seed, eos_logit=-20.0)
        prefix = [model.vocabulary.bos_id]
        greedy = generate_greedy(
            model, prefix, None, GenerationConfig(strategy="greedy", min_new_tokens=0, max_new_tokens=6)
        )
        sampled = generate_sample(
            model, prefix, None,
            GenerationConfig(strategy="sample", min_new_tokens=0, max_new_tokens=6, top_k=1, seed=seed * 31),
        )
        assert sampled.tokens == greedy.tokens

    vocab = make_vocab(4)
    table = np.zeros((6, 6))
    table[vocab.bos_id] = [-9.0, -9.0, 5.0, 4.0, -4.0, -9.0]
    model = make_markov(vocab, table)
    survivors = {2, 3}
    config = GenerationConfig(strategy="sample", min_new_tokens=1, max_new_tokens=1, top_k=2, top_p=1.0)
    for seed in range(10000):
        token = generate_sample(model, [vocab.bos_id], None, replace(config, seed=seed)).tokens[0]
        assert token in survivors

    vocab2 = make_vocab(2)
    table2 = np.zeros((4, 4))
    table2[vocab2.bos_id] = [-1e5, -1e5, 0.0, 0.0]
    model2 = make_markov(vocab2, table2)
    hits = 0
    n = 10000
    for seed in range(n):
        token = generate_sample(
            model2, [vocab2.bos_id], None,
            GenerationConfig(strategy="sample", min_new_tokens=1, max_new_tokens=1, top_k=2, seed=seed),
        ).tokens[0]
        hits += token == 2
    assert 0.48 <= hits / n <= 0.52
    assert time.perf_counter() - start < 10.0


def _steered_condition(label, c, strategy):
    return Condition(
        label=label,
        reweight=ReweightConfig(method="constant_shift", c=c),
        generation=GenerationConfig(strategy=strategy, min_new_tokens=80, max_new_tokens=90),
    )


def test_07_toy_steering_trend(tmp_path):
    """On the shipped fixture the mean steered-topic token score rises by
    more than 0.02 per step across shifts {0, 2, 5} under greedy decoding,
    4-beam search at shift 5 scores at least as high as greedy, and at
    shift 5 the unsteered topic scores below the steered one. The four
    means are pinned to 4 places, so a rebuilt fixture that moves them
    fails here."""
    start = time.perf_counter()
    config = ExperimentConfig(
        corpus_path=fixtures.corpus_path(),
        topics_path=fixtures.topic_model_path(),
        model_path=fixtures.toy_model_path(),
        out_dir=tmp_path / "trend",
        conditions=(
            _steered_condition("greedy_c0", 0.0, "greedy"),
            _steered_condition("greedy_c2", 2.0, "greedy"),
            _steered_condition("greedy_c5", 5.0, "greedy"),
            _steered_condition("beam4_c5", 5.0, "beam"),
        ),
        steered_policy="tid1",
        master_seed=7,
    )
    result = run_sweep(config)
    assert result.rows_error == 0
    assert result.rows_total == 100  # 25 articles x 4 conditions x 1 tid
    with open(result.report_path) as handle:
        rows = list(csv.DictReader(handle))
    means = {}
    for label in ("greedy_c0", "greedy_c2", "greedy_c5", "beam4_c5"):
        values = [float(r["token_t1"]) for r in rows if r["condition"] == label]
        assert len(values) == 25
        means[label] = sum(values) / len(values)
    assert means["greedy_c0"] + 0.02 < means["greedy_c2"]
    assert means["greedy_c2"] + 0.02 < means["greedy_c5"]
    assert means["beam4_c5"] >= means["greedy_c5"]
    off_topic = [float(r["token_t2"]) for r in rows if r["condition"] == "greedy_c5"]
    assert sum(off_topic) / len(off_topic) < means["greedy_c5"]  # steering one topic does not drag the other up
    assert {label: round(m, 4) for label, m in means.items()} == {
        "greedy_c0": 0.1111, "greedy_c2": 0.336, "greedy_c5": 0.6716, "beam4_c5": 0.7498,
    }
    assert time.perf_counter() - start < 30.0


def test_08_evaluation_oracles():
    """Token scoring matches brute-force counting on 500 short summaries;
    ROUGE-L matches a quadratic DP oracle on 200 pairs; the worked examples
    reproduce to 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    for _ in range(500):
        ids = [int(t) for t in rng.integers(0, 40, rng.integers(0, 13))]
        topic = {int(t) for t in rng.integers(0, 40, rng.integers(0, 10))}
        brute = 0.0 if not ids else sum(1 for t in ids if t in topic) / len(ids)
        assert token_topic_score(ids, topic) == brute

    def lcs_oracle(a, b):
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                if a[i - 1] == b[j - 1]:
                    table[i][j] = table[i - 1][j - 1] + 1
                else:
                    table[i][j] = max(table[i - 1][j], table[i][j - 1])
        return table[-1][-1]

    pool = ["a", "b", "c", "d"]
    for _ in range(200):
        xs = [str(w) for w in rng.choice(pool, size=rng.integers(0, 11))]
        ys = [str(w) for w in rng.choice(pool, size=rng.integers(0, 11))]
        lcs = lcs_oracle([stem(w) for w in xs], [stem(w) for w in ys])
        if not xs or not ys:
            expected = 0.0
        else:
            p, r = lcs / len(xs), lcs / len(ys)
            expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert rouge_l_f1(" ".join(xs), " ".join(ys)) == expected

    assert abs(token_topic_score([5, 7, 5, 9], {5}) - 0.5) < 1e-9
    model = TopicModel(topics={0: (("court", 0.6), ("judge", 0.4))})
    assert abs(lemma_topic_score("the courts ruled", 0, model) - 0.6) < 1e-9
    assert abs(rouge_l_f1("the cat sat", "the cat ran") - 2.0 / 3.0) < 1e-9
    assert time.perf_counter() - start < 5.0


def test_09_sweep_reproducibility(tmp_path):
    """Two sweeps with the same master seed emit byte-identical CSVs and a
    manifest whose row totals reconcile."""
    start = time.perf_counter()

    def sweep(out):
        config = ExperimentConfig(
            corpus_path=fixtures.corpus_path(),
            topics_path=fixtures.topic_model_path(),
            model_path=fixtures.toy_model_path(),
            out_dir=out,
            conditions=(
                Condition("baseline", ReweightConfig(method="none"),
                          GenerationConfig(strategy="sample", min_new_tokens=2, max_new_tokens=8)),
                Condition("boost", ReweightConfig(method="threshold_selection", theta=0.005, beta=1.0),
                          GenerationConfig(strategy="sample", min_new_tokens=2, max_new_tokens=8)),
            ),
            limit=6,
            steered_policy="both",
            master_seed=42,
        )
        return run_sweep(config)

    first = sweep(tmp_path / "one")
    second = sweep(tmp_path / "two")
    assert first.report_path.read_bytes() == second.report_path.read_bytes()
    assert first.aggregate_path.read_bytes() == second.aggregate_path.read_bytes()

    manifest = json.loads(first.manifest_path.read_text())
    other = json.loads(second.manifest_path.read_text())
    assert manifest["config_hash"] == other["config_hash"]
    assert manifest["rows_expected"] == 6 * 2 * 2
    assert manifest["rows_written"] == manifest["rows_expected"]
    assert manifest["rows_ok"] + manifest["rows_error"] == manifest["rows_written"]
    assert sum(manifest["rows_per_condition"].values()) == manifest["rows_written"]
    with open(first.report_path) as handle:
        assert len(list(csv.DictReader(handle))) == manifest["rows_written"]
    assert time.perf_counter() - start < 60.0


def test_10_topic_expansion_bound():
    """Every top-25 word of the shipped topics expands to 3-5 matching
    tokens and has an idempotent stem, each topic's token set lands in
    [75, 125], and no shipped article encodes to an empty prompt."""
    model = load_toy_model(fixtures.toy_model_path())
    topic_model = load_topic_model(fixtures.topic_model_path())
    vocab = model.vocabulary
    for tid in topic_model.topic_ids():
        top = topic_model.top_words(tid, 25)
        assert len(top) == 25
        total = 0
        for word, _weight in top:
            matches = sum(1 for v in expand_word(word) if vocab.lookup(v) is not None)
            assert 3 <= matches <= 5, f"{word!r} matches {matches} tokens"
            assert stem(stem(word)) == stem(word), word
            total += matches
        tset = topic_token_set(tid, topic_model, vocab, top_n=25)
        assert 75 <= len(tset) <= 125
        assert len(tset) == total  # variants are disjoint across words
    for sample in load_corpus(fixtures.corpus_path()):
        assert len(sample.prompt(vocab)) >= 2, sample.article_id  # BOS and at least one article token
