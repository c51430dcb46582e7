import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicsteer.decoding import (
    GenerationConfig,
    generate,
    generate_beam,
    generate_greedy,
    generate_sample,
    truncate_top_k_top_p,
)
from topicsteer.models import Vocabulary, log_softmax, softmax
from topicsteer.reweight import ProcessorChain, ReweightConfig, build_chain

from conftest import make_markov, make_vocab, random_markov
import reference_decoding
from reference_decoding import REFERENCE


def greedy_config(min_new=0, max_new=6, **kw):
    return GenerationConfig(strategy="greedy", min_new_tokens=min_new, max_new_tokens=max_new, **kw)


def sample_config(min_new=0, max_new=6, **kw):
    return GenerationConfig(strategy="sample", min_new_tokens=min_new, max_new_tokens=max_new, **kw)


def beam_config(min_new=0, max_new=6, **kw):
    return GenerationConfig(strategy="beam", min_new_tokens=min_new, max_new_tokens=max_new, **kw)


class TestTruncation:
    def test_top_k_only(self):
        out = truncate_top_k_top_p(np.array([3.0, 2.0, 1.0, 0.0]), top_k=2, top_p=1.0)
        assert out.tolist() == [3.0, 2.0, -np.inf, -np.inf]

    def test_top_p_keeps_dominant_token(self):
        # softmax([10,0,0,0])[0] > 0.9, so the nucleus is a single token
        scores = np.array([10.0, 0.0, 0.0, 0.0])
        assert softmax(scores)[0] > 0.9
        out = truncate_top_k_top_p(scores, top_k=4, top_p=0.9)
        assert out.tolist() == [10.0, -np.inf, -np.inf, -np.inf]

    def test_identity_when_unconstrained(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.normal(0, 2, int(rng.integers(2, 12)))
            out = truncate_top_k_top_p(scores, top_k=scores.size, top_p=1.0)
            assert np.array_equal(out, scores)

    def test_at_least_one_survivor(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = rng.normal(0, 5, int(rng.integers(2, 20)))
            out = truncate_top_k_top_p(scores, top_k=1, top_p=1e-9)
            assert np.isfinite(out).sum() >= 1

    def test_argmax_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores = rng.normal(0, 3, int(rng.integers(2, 20)))
            for top_k, top_p in ((1, 1.0), (3, 0.5), (scores.size, 0.2)):
                out = truncate_top_k_top_p(scores, top_k=top_k, top_p=top_p)
                assert int(np.argmax(out)) == int(np.argmax(scores))

    def test_ties_keep_lower_ids(self):
        out = truncate_top_k_top_p(np.array([1.0, 1.0, 1.0]), top_k=2, top_p=1.0)
        assert out.tolist() == [1.0, 1.0, -np.inf]


class TestGreedy:
    def test_first_token_is_argmax(self):
        vocab = make_vocab(3)  # <s> </s> w0 w1 w2
        table = np.full((5, 5), -1.0)
        table[vocab.bos_id] = [-9.0, -9.0, 0.0, 3.0, 1.0]  # peaks at w1 (id 3)
        model = make_markov(vocab, table)
        result = generate_greedy(model, [vocab.bos_id], None, greedy_config(max_new=1))
        assert result.tokens == (3,)

    def test_big_shift_flips_argmax(self):
        vocab = make_vocab(3)
        table = np.full((5, 5), -1.0)
        table[vocab.bos_id] = [-9.0, -9.0, 0.0, 3.0, 1.0]
        model = make_markov(vocab, table)
        chain = build_chain(ReweightConfig(method="constant_shift", c=100.0), {4})
        result = generate_greedy(model, [vocab.bos_id], chain, greedy_config(max_new=1))
        assert result.tokens == (4,)

    def test_zero_budget(self):
        model = random_markov(3)
        result = generate_greedy(model, [model.vocabulary.bos_id], None, greedy_config(max_new=0))
        assert result.tokens == ()
        assert result.log_prob == 0.0

    def test_deterministic(self):
        model = random_markov(4)
        config = greedy_config(max_new=8)
        first = generate_greedy(model, [model.vocabulary.bos_id], None, config)
        second = generate_greedy(model, [model.vocabulary.bos_id], None, config)
        assert first == second

    def test_eos_suppressed_until_min(self):
        # EOS is always the argmax, so generation stops right after min is met
        vocab = make_vocab(2)
        table = np.zeros((4, 4))
        table[:, vocab.eos_id] = 5.0
        table[:, vocab.bos_id] = -5.0
        model = make_markov(vocab, table)
        result = generate_greedy(model, [vocab.bos_id], None, greedy_config(min_new=3, max_new=10))
        assert len(result.tokens) == 4
        assert result.tokens[-1] == vocab.eos_id
        assert vocab.eos_id not in result.tokens[:-1]

    def test_trace_records_pre_and_post_chain(self):
        vocab = make_vocab(2)
        table = np.zeros((4, 4))
        table[:, vocab.bos_id] = -5.0
        table[:, vocab.eos_id] = -5.0
        table[:, 2] = 1.0
        model = make_markov(vocab, table)
        chain = build_chain(ReweightConfig(method="constant_shift", c=2.0), {2})
        result = generate_greedy(model, [vocab.bos_id], chain, greedy_config(max_new=3), trace=True)
        assert result.step_records is not None and len(result.step_records) == 3
        for record in result.step_records:
            assert record.token_id == 2
            assert record.raw_logit == 1.0
            assert record.steered_logit == 3.0

    def test_wrong_strategy_rejected(self):
        model = random_markov(0)
        with pytest.raises(ValueError, match="strategy"):
            generate_greedy(model, [0], None, sample_config())

    def test_log_prob_accumulates_post_chain(self):
        model = random_markov(5)
        config = greedy_config(max_new=4)
        result = generate_greedy(model, [model.vocabulary.bos_id], None, config)
        seq = [model.vocabulary.bos_id]
        expected = 0.0
        for token in result.tokens:
            logits = model.next_logits(seq)
            expected += float(log_softmax(logits)[token])
            seq.append(token)
        assert math.isclose(result.log_prob, expected, rel_tol=1e-12)


class TestSample:
    def test_reproducible_for_fixed_seed(self):
        model = random_markov(6, eos_logit=-20.0)
        config = sample_config(max_new=10, seed=123)
        runs = [generate_sample(model, [model.vocabulary.bos_id], None, config).tokens for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_different_seeds_differ(self):
        model = random_markov(7, eos_logit=-20.0)
        outs = {
            generate_sample(model, [model.vocabulary.bos_id], None, sample_config(max_new=12, seed=s)).tokens
            for s in range(8)
        }
        assert len(outs) > 1

    def test_top_k_one_equals_greedy(self):
        for seed in range(10):
            model = random_markov(seed, eos_logit=-20.0)
            prefix = [model.vocabulary.bos_id]
            greedy = generate_greedy(model, prefix, None, greedy_config(max_new=6))
            sampled = generate_sample(model, prefix, None, sample_config(max_new=6, top_k=1, seed=seed * 7))
            assert sampled.tokens == greedy.tokens

    def test_masked_tokens_never_sampled(self):
        vocab = make_vocab(4)
        table = np.zeros((6, 6))
        table[vocab.bos_id] = [-9.0, -9.0, 5.0, 4.0, -4.0, -9.0]
        model = make_markov(vocab, table)
        allowed = {2, 3}
        for seed in range(2000):
            result = generate_sample(
                model, [vocab.bos_id], None, sample_config(min_new=1, max_new=1, top_k=2, top_p=1.0, seed=seed)
            )
            assert set(result.tokens) <= allowed

    def test_uniform_two_token_frequencies(self):
        vocab = make_vocab(2)
        table = np.zeros((4, 4))
        table[vocab.bos_id] = [-1e5, -1e5, 0.0, 0.0]
        model = make_markov(vocab, table)
        counts = {2: 0, 3: 0}
        n = 4000
        for seed in range(n):
            token = generate_sample(
                model, [vocab.bos_id], None, sample_config(min_new=1, max_new=1, top_k=2, seed=seed)
            ).tokens[0]
            counts[token] += 1
        # 4 sigma around 0.5 for n=4000 is ~0.032
        assert 0.45 <= counts[2] / n <= 0.55

    def test_log_prob_matches_distribution(self):
        model = random_markov(9, eos_logit=-20.0)
        config = sample_config(max_new=5, top_k=3, top_p=0.9, seed=5)
        result = generate_sample(model, [model.vocabulary.bos_id], None, config)
        seq = [model.vocabulary.bos_id]
        expected = 0.0
        for token in result.tokens:
            logits = model.next_logits(seq)
            truncated = truncate_top_k_top_p(logits, 3, 0.9)
            expected += math.log(softmax(truncated)[token])
            seq.append(token)
        assert math.isclose(result.log_prob, expected, rel_tol=1e-12)


def exhaustive_best(model, prefix, chain, config, length):
    """Brute-force argmax over all fixed-length continuations.

    Mirrors the engine's step semantics (chain, EOS mask below min, then
    truncation) but scores every sequence by full enumeration.
    """
    vocab = model.vocabulary
    eos = vocab.eos_id
    candidates = [t for t in range(vocab.size) if t != eos and t != vocab.bos_id]
    best_seq, best_lp = None, -np.inf
    for seq in itertools.product(candidates, repeat=length):
        lp = 0.0
        state = list(prefix)
        for step, token in enumerate(seq):
            logits = model.next_logits(state)
            steered = chain.apply(logits) if chain is not None else logits
            if step < config.min_new_tokens:
                steered = steered.copy()
                steered[eos] = -np.inf
            truncated = truncate_top_k_top_p(steered, config.top_k, config.top_p)
            lp += float(log_softmax(truncated)[token])
            state.append(token)
        if lp > best_lp:
            best_seq, best_lp = seq, lp
    return best_seq, best_lp


class TestBeam:
    def test_single_beam_equals_greedy(self):
        for seed in range(15):
            model = random_markov(seed, n_words=3 + seed % 3)
            prefix = [model.vocabulary.bos_id]
            config = beam_config(max_new=6, num_beams=1, top_k=model.vocabulary.size, top_p=1.0)
            greedy = generate_greedy(model, prefix, None, greedy_config(max_new=6))
            beam = generate_beam(model, prefix, None, config)
            assert beam.tokens == greedy.tokens
            assert math.isclose(beam.log_prob, greedy.log_prob, rel_tol=1e-12)

    def test_wide_beam_matches_exhaustive_search(self):
        # 3 usable tokens, 2 steps: 9 candidate sequences; a 9-beam search
        # retains every one of them and must return the global argmax.
        vocab = make_vocab(3)
        rng = np.random.default_rng(17)
        table = rng.normal(0.0, 1.5, (5, 5))
        table[:, vocab.bos_id] = -100.0
        model = make_markov(vocab, table)
        config = beam_config(min_new=2, max_new=2, num_beams=9, top_k=5, top_p=1.0)
        result = generate_beam(model, [vocab.bos_id], None, config)
        best_seq, best_lp = exhaustive_best(model, [vocab.bos_id], None, config, 2)
        assert result.tokens == best_seq
        assert math.isclose(result.log_prob, best_lp, rel_tol=1e-12)

    def test_narrow_beam_matches_exhaustive_when_argmax_survives(self):
        # fixture where the true argmax's first token is in the top 2:
        # from BOS both w0 (id 2) and w1 (id 3) look good; w1's continuation wins
        vocab = make_vocab(3)
        table = np.full((5, 5), -6.0)
        table[vocab.bos_id] = [-20.0, -20.0, 1.2, 1.0, -3.0]
        table[2] = [-20.0, -20.0, 0.0, 0.2, 0.1]     # mediocre continuations
        table[3] = [-20.0, -20.0, 0.1, 0.0, 4.0]     # strong continuation via w2
        table[4] = [-20.0, -20.0, 0.0, 0.0, 0.0]
        model = make_markov(vocab, table)
        config = beam_config(min_new=2, max_new=2, num_beams=2, top_k=5, top_p=1.0)
        result = generate_beam(model, [vocab.bos_id], None, config)
        best_seq, _ = exhaustive_best(model, [vocab.bos_id], None, config, 2)
        assert best_seq[0] in (2, 3)  # argmax survives step 1
        assert result.tokens == best_seq

    def test_boosting_increases_topic_tokens_of_winner(self):
        vocab = make_vocab(4)
        rng = np.random.default_rng(23)
        table = rng.normal(0.0, 1.0, (6, 6))
        table[:, vocab.bos_id] = -50.0
        table[:, vocab.eos_id] = -50.0
        table[:, 4] = -1.5  # topic tokens lose raw but dominate once boosted
        table[:, 5] = -2.0
        model = make_markov(vocab, table)
        topic = {4, 5}
        config = beam_config(min_new=3, max_new=3, num_beams=6, top_k=6, top_p=1.0)
        chain = build_chain(ReweightConfig(method="threshold_selection", theta=0.0, beta=1.0), topic)
        plain = generate_beam(model, [vocab.bos_id], None, config)
        steered = generate_beam(model, [vocab.bos_id], chain, config)
        # verify both against exhaustive enumeration, then compare topic counts
        assert plain.tokens == exhaustive_best(model, [vocab.bos_id], None, config, 3)[0]
        assert steered.tokens == exhaustive_best(model, [vocab.bos_id], chain, config, 3)[0]
        count = lambda toks: sum(1 for t in toks if t in topic)
        assert count(steered.tokens) > count(plain.tokens)

    def test_eos_finishes_beam(self):
        vocab = make_vocab(2)
        table = np.zeros((4, 4))
        table[:, vocab.eos_id] = 6.0
        table[:, vocab.bos_id] = -6.0
        model = make_markov(vocab, table)
        config = beam_config(min_new=2, max_new=8, num_beams=3)
        result = generate_beam(model, [vocab.bos_id], None, config)
        assert result.tokens[-1] == vocab.eos_id
        assert len(result.tokens) == 3

    def test_zero_budget(self):
        model = random_markov(11)
        result = generate_beam(model, [model.vocabulary.bos_id], None, beam_config(max_new=0))
        assert result.tokens == ()
        assert result.log_prob == 0.0

    def test_cumulative_log_prob_non_increasing_with_length(self):
        model = random_markov(13, eos_logit=-20.0)
        prefix = [model.vocabulary.bos_id]
        previous = 0.0
        for max_new in range(1, 8):
            config = beam_config(max_new=max_new, num_beams=3)
            lp = generate_beam(model, prefix, None, config).log_prob
            assert lp <= previous + 1e-12
            previous = lp


class TestChainBeforeTruncation:
    def test_boosted_token_reenters_truncated_set(self):
        # token 5 is outside the raw top-2 but its original softmax clears
        # theta, so the boost fires before truncation and it gets emitted
        vocab = make_vocab(4)
        table = np.zeros((6, 6))
        table[vocab.bos_id] = [-9.0, -9.0, 5.0, 4.0, 3.0, 2.0]
        model = make_markov(vocab, table)
        theta = float(softmax(table[vocab.bos_id])[5]) / 2
        chain = build_chain(ReweightConfig(method="threshold_selection", theta=theta, beta=1.0), {5})
        greedy = generate_greedy(model, [vocab.bos_id], chain, greedy_config(max_new=1))
        assert greedy.tokens == (5,)
        sampled = generate_sample(
            model, [vocab.bos_id], chain, sample_config(max_new=1, top_k=1, top_p=0.5, seed=0)
        )
        assert sampled.tokens == (5,)


class TestDispatcherAndRecords:
    def test_generate_dispatches(self):
        model = random_markov(19, eos_logit=-20.0)
        prefix = [model.vocabulary.bos_id]
        assert generate(model, prefix, None, greedy_config(max_new=3)).tokens == \
            generate_greedy(model, prefix, None, greedy_config(max_new=3)).tokens
        assert generate(model, prefix, None, beam_config(max_new=3)).tokens == \
            generate_beam(model, prefix, None, beam_config(max_new=3)).tokens
        assert generate(model, prefix, None, sample_config(max_new=3, seed=2)).tokens == \
            generate_sample(model, prefix, None, sample_config(max_new=3, seed=2)).tokens

    def test_result_record_round_trips_json(self):
        import json

        model = random_markov(21, eos_logit=-20.0)
        config = greedy_config(max_new=4)
        result = generate_greedy(model, [model.vocabulary.bos_id], None, config)
        record = json.loads(json.dumps(result.to_record(model.vocabulary, config)))
        assert record["tokens"] == list(result.tokens)
        assert record["config"]["strategy"] == "greedy"
        assert isinstance(record["text"], str)

    def test_invalid_config_values(self):
        with pytest.raises(ValueError):
            GenerationConfig(top_k=0)
        with pytest.raises(ValueError):
            GenerationConfig(top_p=0.0)
        with pytest.raises(ValueError):
            GenerationConfig(num_beams=0)
        with pytest.raises(ValueError):
            GenerationConfig(min_new_tokens=5, max_new_tokens=4)
        with pytest.raises(ValueError):
            GenerationConfig(strategy="magic")

    def test_empty_prefix_rejected(self):
        model = random_markov(1)
        with pytest.raises(ValueError, match="non-empty"):
            generate_greedy(model, [], None, greedy_config())


class CountingProvider:
    """Wraps a provider and records the prefix length of every call."""

    def __init__(self, model):
        self.model = model
        self.lengths = []

    @property
    def vocabulary(self):
        return self.model.vocabulary

    def next_logits(self, prefix):
        self.lengths.append(len(prefix))
        return self.model.next_logits(prefix)


class TestSharedLoop:
    def test_finished_beam_uses_up_its_slot(self):
        # From BOS, EOS is among the top 3 successors, so one of the 3 beams
        # finishes at step 1; step 2 extends the other 2 and step 3 is full again.
        vocab = make_vocab(3)
        table = np.full((5, 5), -20.0)
        table[vocab.bos_id] = [-20.0, 3.0, 2.0, 1.0, 0.0]
        table[2:, 2:] = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.5, 0.0, 1.0]]
        provider = CountingProvider(make_markov(vocab, table))
        config = beam_config(min_new=0, max_new=3, num_beams=3, top_k=5, top_p=1.0)
        generate_beam(provider, [vocab.bos_id], None, config)
        calls_per_step = [provider.lengths.count(1 + step) for step in range(3)]
        assert calls_per_step == [1, config.num_beams - 1, config.num_beams]

    def test_single_beam_trace_equals_greedy(self):
        for seed in range(10):
            model = random_markov(seed, n_words=3 + seed % 3)
            prefix = [model.vocabulary.bos_id]
            chain = build_chain(ReweightConfig(method="constant_shift", c=1.5), {2, 4})
            config = beam_config(max_new=6, num_beams=1, top_k=model.vocabulary.size, top_p=1.0)
            beam = generate_beam(model, prefix, chain, config, trace=True)
            greedy = generate_greedy(model, prefix, chain, greedy_config(max_new=6), trace=True)
            assert beam.step_records == greedy.step_records
            assert [r.step for r in beam.step_records] == list(range(len(beam.tokens)))

    def test_sample_trace_follows_tokens(self):
        model = random_markov(3, eos_logit=-20.0)
        config = sample_config(max_new=8, seed=4)
        result = generate_sample(model, [model.vocabulary.bos_id], None, config, trace=True)
        assert [r.token_id for r in result.step_records] == list(result.tokens)

    def test_trace_off_records_nothing(self):
        model = random_markov(2)
        for config in (greedy_config(), sample_config(), beam_config()):
            assert generate(model, [model.vocabulary.bos_id], None, config).step_records is None


@st.composite
def decoding_cases(draw):
    n_words = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.normal(0.0, 1.5, (n_words + 2, n_words + 2))
    shape = draw(st.sampled_from(["random", "grid", "grid, equal rows"]))
    if shape != "random":
        table = np.round(table * 2.0) / 2.0  # coarse grid: ties within a step
    if shape == "grid, equal rows":
        table[:] = table[0]  # equal cumulative scores across beams, too
    model = make_markov(make_vocab(n_words), table)
    size = model.vocabulary.size
    topic = draw(st.sets(st.integers(0, size - 1), max_size=size))
    method = draw(st.sampled_from(["none", "shift", "scale", "threshold"]))
    if method == "none":
        chain = draw(st.sampled_from([None, ProcessorChain()]))
    elif method == "shift":
        chain = build_chain(ReweightConfig(method="constant_shift", c=draw(st.floats(-4.0, 4.0))), topic)
    elif method == "scale":
        chain = build_chain(ReweightConfig(method="factor_scaling", alpha=draw(st.floats(-2.0, 3.0))), topic)
    else:
        theta, beta = draw(st.floats(0.0, 0.6)), draw(st.floats(0.0, 3.0))
        chain = build_chain(ReweightConfig(method="threshold_selection", theta=theta, beta=beta), topic)
    max_new = draw(st.integers(0, 8))
    config = GenerationConfig(
        strategy=draw(st.sampled_from(["greedy", "sample", "beam"])),
        top_k=draw(st.integers(1, size + 1)),
        top_p=draw(st.sampled_from([1.0, 0.95, 0.7, 0.3, 1e-9])),
        num_beams=draw(st.integers(1, 4)),
        max_new_tokens=max_new,
        min_new_tokens=draw(st.integers(0, max_new)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    return model, chain, config


@settings(max_examples=300, deadline=None)
@given(decoding_cases())
def test_shared_loop_matches_reference_decoders(case):
    model, chain, config = case
    prefix = [model.vocabulary.bos_id]
    trace = config.strategy != "beam"  # the reference beam loop records no traces
    expected = REFERENCE[config.strategy](model, prefix, chain, config, trace)
    result = generate(model, prefix, chain, config, trace)
    assert result.tokens == expected.tokens
    assert result.log_prob.hex() == expected.log_prob.hex()
    assert result.step_records == expected.step_records


def _truncation_outcome(truncate, scores, top_k, top_p):
    """Bytes of the truncated vector, or the type of the exception raised."""
    try:
        with np.errstate(all="ignore"):
            return truncate(scores, top_k, top_p).tobytes()
    except Exception as exc:  # compared by type against the reference
        return type(exc)


@st.composite
def truncation_cases(draw):
    """Vectors of a few distinct values, so many ids tie at the top-k boundary.

    Small sizes take the full sort, sizes over 1024 with a small top_k the
    partial selection. Most ids share a background score, as in the shipped
    fixture, that may be -inf or NaN; -inf, +inf and NaN are also sprinkled.
    """
    size = draw(st.one_of(st.integers(1, 80), st.integers(1000, 4000)))
    top_k = draw(st.one_of(st.integers(1, 64), st.integers(1, size + 5)))
    pool = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-30.0, 30.0)), min_size=1, max_size=5
    ))
    background = draw(st.sampled_from([pool[0], pool[0], -np.inf, np.nan]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = np.full(size, background)
    peaks = rng.choice(size, int(rng.integers(0, min(size, 3 * top_k) + 1)), replace=False)
    scores[peaks] = rng.choice(pool, peaks.size)
    specials = rng.choice(size, int(rng.integers(0, min(size, 4) + 1)), replace=False)
    scores[specials] = rng.choice([-np.inf, np.inf, np.nan], specials.size)
    top_p = draw(st.one_of(st.sampled_from([1.0, 0.95, 0.5, 1e-9]), st.floats(1e-9, 1.0)))
    return scores, top_k, top_p


@settings(max_examples=500, deadline=None)
@given(truncation_cases())
def test_truncation_matches_full_sort_reference(case):
    """Partial selection and the full sort keep the reference's ids, bit for bit."""
    scores, top_k, top_p = case
    expected = _truncation_outcome(reference_decoding.truncate_top_k_top_p, scores, top_k, top_p)
    assert _truncation_outcome(truncate_top_k_top_p, scores, top_k, top_p) == expected
