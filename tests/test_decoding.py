import itertools
import linecache
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topicsteer.decoding as decoding
from topicsteer.decoding import (
    STRATEGIES,
    GenerationConfig,
    generate,
    generate_beam,
    generate_greedy,
    generate_sample,
    truncate_top_k_top_p,
)
from topicsteer.fixtures import topic_model_path, toy_model_path
from topicsteer.models import NonFiniteLogitsError, Vocabulary, as_logit_vector, load_toy_model, log_softmax, softmax
from topicsteer.reweight import ProcessorChain, ReweightConfig, VocabularyMismatchError, build_chain, threshold_selection
from topicsteer.topics import load_topic_model, topic_token_set

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_inf_names_the_vector_not_a_provider(self, bad):
        with pytest.raises(NonFiniteLogitsError) as error:
            truncate_top_k_top_p([bad, 1.0], 5, 0.9)
        assert str(error.value) == "logit vector holds NaN or +inf" and error.value.row is None

    def test_bool_top_k_is_named(self):
        with pytest.raises(TypeError, match=r"^top_k True is not an integer$"):
            truncate_top_k_top_p(np.array([3.0, 2.0, 1.0]), top_k=True, top_p=1.0)

    def test_fractional_top_k_is_named(self):
        with pytest.raises(TypeError, match=r"^top_k 2\.5 is not an integer$"):
            truncate_top_k_top_p(np.array([3.0, 2.0, 1.0]), top_k=2.5, top_p=1.0)

    def test_mistyped_top_p_is_named(self):
        with pytest.raises(TypeError, match=r"^top_p '0\.9' is not a real number$"):
            truncate_top_k_top_p(np.array([3.0, 2.0, 1.0]), top_k=2, top_p="0.9")

    def test_block_is_rejected(self):
        with pytest.raises(ValueError, match=r"^logit vector must be one-dimensional$"):
            truncate_top_k_top_p(np.zeros((2, 3)), top_k=2, top_p=1.0)

    @pytest.mark.parametrize("scores", [[], [-np.inf, -np.inf]], ids=["empty", "all-masked"])
    def test_a_vector_without_an_unmasked_token_is_rejected(self, scores):
        with pytest.raises(ValueError, match=r"^every token of a logit vector is masked$"):
            truncate_top_k_top_p(np.array(scores), 5, 0.9)


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

    def test_qualifying_tokens_tie_and_the_lower_id_wins(self):
        # tokens 2 and 4 clear theta (token 1, at p 0.0496, does not), and both become max + beta
        row = [3.0, 1.0, 2.5, 0.5, 2.9]
        assert threshold_selection(row, {1, 2, 4}, theta=0.05, beta=1).tolist() == [3.0, 1.0, 4.0, 0.5, 4.0]
        vocab = make_vocab(3)
        model = make_markov(vocab, np.tile(row, (vocab.size, 1)))
        chain = build_chain(ReweightConfig(method="threshold_selection", theta=0.05, beta=1.0), {1, 2, 4})
        assert generate(model, [vocab.bos_id], chain, greedy_config(max_new=1)).tokens == (2,)
        beam = beam_config(max_new=1, num_beams=2)
        assert generate(model, [vocab.bos_id], chain, beam).tokens == (2,)
        steered = chain.bind(1, vocab.size)(np.array([row]))
        successors = [decoding._beam(record, beam) for record in decoding._truncate(steered, beam, np.zeros(5))]
        (first, token, _), (second, other, _) = decoding._best(successors, [(-0.0,)], beam, None)
        assert (token, other) == (2, 4) and first == second


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

    def test_invalid_config_values(self):
        with pytest.raises(ValueError):
            GenerationConfig(top_k=0)
        with pytest.raises(ValueError):
            GenerationConfig(top_p=0.0)
        with pytest.raises(ValueError):
            GenerationConfig(num_beams=0)
        with pytest.raises(ValueError):
            GenerationConfig(min_new_tokens=5, max_new_tokens=4)
        with pytest.raises(ValueError, match="^token window must be non-negative$"):
            GenerationConfig(min_new_tokens=-1, max_new_tokens=4)
        with pytest.raises(ValueError):
            GenerationConfig(strategy="magic")

    @pytest.mark.parametrize("field", ["top_k", "num_beams", "min_new_tokens", "max_new_tokens", "seed"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, np.True_, "2", None], ids=repr)
    def test_mistyped_count_is_named(self, field, bad):
        with pytest.raises(TypeError, match=rf"^{field} .* is not an integer"):
            GenerationConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [True, "0.9", None], ids=repr)
    def test_mistyped_top_p_is_named(self, bad):
        with pytest.raises(TypeError, match=r"^top_p .* is not a real number"):
            GenerationConfig(top_p=bad)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0"):
            GenerationConfig(strategy="sample", seed=-1)

    def test_numpy_integers_become_python_ints(self):
        config = GenerationConfig(top_k=np.int64(3), num_beams=np.int32(2), seed=np.uint64(2**63))
        assert (config.top_k, config.num_beams, config.seed) == (3, 2, 2**63)
        assert all(type(v) is int for v in (config.top_k, config.num_beams, config.seed))

    def test_empty_prefix_rejected(self):
        model = random_markov(1)
        with pytest.raises(ValueError, match="non-empty"):
            generate_greedy(model, [], None, greedy_config())
        for config in (greedy_config(), sample_config(), beam_config()):  # the fallback path's own check
            with pytest.raises(ValueError, match="^prefix must be non-empty$"):
                generate(NextLogitsOnly(model), [], None, config)


class TestZeroLogProb:
    """A decode whose every step has log prob zero returns +0.0, as a sum of zeros from 0.0 does.

    Each hypothesis keeps its negated total as the pick's sort key, from -0.0,
    and a decode returns ``0.0 - key``. A key started at +0.0 and negated at
    the end would return -0.0 for 0.0 steps; a key negated from -0.0 would
    return -0.0 for -0.0 steps, which a -0.0 top logit that holds all the
    mass gives greedy and beam search.
    """

    @pytest.mark.parametrize("strategy", ["sample", "beam"])
    def test_top_k_of_one_gives_zero_steps(self, strategy):
        model = random_markov(4)
        config = GenerationConfig(strategy, top_k=1, min_new_tokens=5, max_new_tokens=5)
        result = generate(model, [model.vocabulary.bos_id], None, config)
        assert len(result.tokens) == 5 and result.log_prob.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_negative_zero_top_logit_that_holds_all_the_mass(self, strategy):
        vocab = make_vocab(3)
        table = np.full((vocab.size, vocab.size), -1e300)
        table[:, 3] = -0.0
        config = GenerationConfig(strategy, min_new_tokens=5, max_new_tokens=5)
        result = generate(make_markov(vocab, table), [vocab.bos_id], None, config)
        assert result.tokens == (3,) * 5 and result.log_prob.hex() == "0x0.0p+0"


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


class FewRowsModel:
    """An order-1 provider over a large vocabulary with only a few distinct rows.

    Token t's successors are scored by row t % len(rows). Its incremental
    half gathers a step's rows with ``logits_many``.
    """

    def __init__(self, vocabulary, rows):
        self.vocabulary = vocabulary
        self.rows = rows

    def start(self, prefix):
        ids = self.vocabulary.validate_ids(prefix)
        if not ids:
            raise ValueError("prefix must be non-empty")
        return ids[-1]

    def advance(self, state, token):
        return token

    def logits_many(self, states):
        return self.rows.take([state % len(self.rows) for state in states], axis=0)

    def next_logits(self, prefix):
        return self.logits_many([self.start(prefix)])[0]


@st.composite
def decoding_cases(draw):
    """Models whose steps hold up to 6 live rows, with ties within and across rows.

    Mostly small order-1 tables; for sampling and beam search also V of
    1,100-3,000 (a ``FewRowsModel``), where a small top_k takes the block-max
    truncation and one decode's logits block and one table's zero row are reused while beams end.
    Shapes: random rows; a coarse grid (ties within a step); all rows equal
    (equal cumulative scores across beams, too); some rows equal (tied rows
    among the live ones). EOS may be lifted into each row's top-k, so beams
    finish at different steps. top_k may exceed V, so while EOS is masked a
    row's top-k holds a non-finite entry; top_p < 1 gives rows different
    survivor counts.
    """
    strategy = draw(st.sampled_from(["greedy", "sample", "beam"]))
    large = strategy != "greedy" and draw(st.integers(0, 3)) == 0
    n_words = draw(st.integers(1098, 2998)) if large else draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.normal(0.0, 1.5, (draw(st.integers(2, 6)) if large else n_words + 2, n_words + 2))
    shape = draw(st.sampled_from(["random", "grid", "grid, equal rows", "grid, some equal rows"]))
    if shape != "random":
        table = np.round(table * 2.0) / 2.0
    if shape == "grid, equal rows":
        table[:] = table[0]
    if shape == "grid, some equal rows":
        table[rng.random(table.shape[0]) < 0.5] = table[-1]
    eos_gap = draw(st.sampled_from([None, 0.0, 0.5, 2.0]))
    if eos_gap is not None:
        table[:, 1] = table.max(axis=1) - eos_gap  # id 1 is EOS
    model = FewRowsModel(make_vocab(n_words), table) if large else make_markov(make_vocab(n_words), table)
    size = model.vocabulary.size
    if large:
        topic = set(rng.choice(size, draw(st.integers(0, size // 2)), replace=False).tolist())
    else:
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
        strategy=strategy,
        top_k=draw(st.one_of(st.integers(1, 64), st.integers(1, size), st.integers(size, 3 * size))),
        top_p=draw(st.sampled_from([1.0, 0.95, 0.7, 0.3, 1e-9])),
        num_beams=draw(st.integers(1, 6)),
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
    expected = REFERENCE[config.strategy](model, prefix, chain, config)
    result = generate(model, prefix, chain, config)
    assert result.tokens == expected.tokens
    assert result.log_prob.hex() == expected.log_prob.hex()


class NextLogitsOnly:
    """A provider with only ``vocabulary`` and ``next_logits``: the decoder's fallback path."""

    def __init__(self, model):
        self.vocabulary = model.vocabulary
        self.next_logits = model.next_logits


@st.composite
def prompted_decoding_cases(draw):
    model, chain, config = draw(decoding_cases())
    prefix = draw(st.lists(st.integers(0, model.vocabulary.size - 1), min_size=1, max_size=60))
    return model, chain, config, prefix


@settings(max_examples=300, deadline=None)
@given(prompted_decoding_cases())
def test_incremental_path_matches_next_logits_fallback(case):
    model, chain, config, prefix = case
    assert hasattr(model, "start") and not hasattr(NextLogitsOnly(model), "start")
    expected = generate(NextLogitsOnly(model), prefix, chain, config)
    result = generate(model, prefix, chain, config)
    assert result.tokens == expected.tokens
    assert result.log_prob.hex() == expected.log_prob.hex()


class TestPromptChecks:
    def test_beam_decode_checks_each_prompt_id_once(self, monkeypatch):
        checked = []
        validate = Vocabulary.validate_ids

        def counting(self, ids):
            checked.append(len(ids))
            return validate(self, ids)

        monkeypatch.setattr(Vocabulary, "validate_ids", counting)
        model = random_markov(6, eos_logit=-20.0)
        prefix = [model.vocabulary.bos_id, *range(2, model.vocabulary.size)] * 10
        result = generate_beam(model, prefix, None, beam_config(min_new=5, max_new=8, num_beams=3))
        assert len(result.tokens) == 8
        assert sum(checked) == len(prefix)

    @pytest.mark.parametrize("bad, error", [(99, ValueError), (-1, ValueError), (True, TypeError), (2.0, TypeError)],
                             ids=repr)
    def test_bad_id_mid_prompt_rejected(self, bad, error):
        model = random_markov(1)
        prefix = [model.vocabulary.bos_id, 2, 3, bad, 4, 5]
        for provider in (model, NextLogitsOnly(model)):
            for config in (greedy_config(), sample_config(), beam_config()):
                with pytest.raises(error, match="token id"):
                    generate(provider, prefix, None, config)


class ShortRows:
    """A provider whose ``logits_many`` blocks are one column narrower than its vocabulary."""

    def __init__(self, model):
        self.model = model
        self.vocabulary = model.vocabulary
        self.start, self.advance = model.start, model.advance

    def logits_many(self, states):
        return self.model.logits_many(states)[:, :-1]


class TestBlockWidth:
    @pytest.mark.parametrize("config", [greedy_config(), beam_config(num_beams=3)], ids=lambda c: c.strategy)
    @pytest.mark.parametrize("method", ["constant_shift", "factor_scaling", "threshold_selection"])
    def test_block_narrower_than_the_vocabulary_is_a_mismatch(self, config, method):
        model = random_markov(4, n_words=5)
        size = model.vocabulary.size
        provider = ShortRows(model)
        for topic in ({2, 3}, {2, size - 1}):
            chain = build_chain(ReweightConfig(method=method), topic)
            with pytest.raises(VocabularyMismatchError, match=f"logit rows have {size - 1} entries"):
                generate(provider, [model.vocabulary.bos_id], chain, config)


class FixedNextLogits:
    """A ``next_logits``-only provider that gives ``logits`` for every prefix."""

    def __init__(self, vocabulary, logits):
        self.vocabulary, self.logits = vocabulary, logits

    def next_logits(self, prefix):
        return self.logits


class RowCount:
    """A toy model whose ``logits_many`` blocks have ``extra`` rows more than the states asked for: leading zero
    rows when ``extra`` > 0, the last rows dropped when it is < 0."""

    def __init__(self, model, extra):
        self.model, self.vocabulary, self.extra = model, model.vocabulary, extra
        self.start, self.advance = model.start, model.advance

    def logits_many(self, states):
        block = self.model.logits_many(states)
        if self.extra < 0:
            return block[: self.extra]
        return np.vstack([np.zeros((self.extra, self.vocabulary.size)), block])


class CastBlocks:
    """A toy model whose ``logits_many`` blocks come through ``cast``: another dtype, or a plain list."""

    def __init__(self, model, cast):
        self.model, self.vocabulary, self.cast = model, model.vocabulary, cast
        self.start, self.advance = model.start, model.advance

    def logits_many(self, states):
        return self.cast(self.model.logits_many(states))


STRATEGY_CONFIGS = [greedy_config(), sample_config(), beam_config(num_beams=3)]


class TestProviderShapes:
    @pytest.mark.parametrize("config", STRATEGY_CONFIGS, ids=lambda c: c.strategy)
    @pytest.mark.parametrize("logits", [np.array([1.0]), np.float64(1.0), 1.0, np.zeros(4), [0.0] * 6, np.zeros((1, 5))],
                             ids=["1-entry", "numpy-scalar", "float", "4-wide", "6-wide-list", "one-row-block"])
    def test_next_logits_of_another_shape_is_a_mismatch(self, config, logits):
        # numpy broadcast the first three into the row, which decoded BOS, BOS, BOS
        vocab = make_vocab(3)
        assert vocab.size == 5
        shape = np.shape(logits)
        with pytest.raises(VocabularyMismatchError, match=re.escape(f"shape {shape} but the vocabulary has 5 tokens")):
            generate(FixedNextLogits(vocab, logits), [vocab.bos_id], None, config)

    @pytest.mark.parametrize("config", STRATEGY_CONFIGS, ids=lambda c: c.strategy)
    def test_next_logits_of_the_vocabulary_width_decodes(self, config):
        vocab = make_vocab(3)
        logits = [0.0, 1.0, 2.0, 5.0, 3.0]  # a list works: only its shape is checked
        assert generate(FixedNextLogits(vocab, logits), [vocab.bos_id], None, config).tokens[0] in (3, 4)

    @pytest.mark.parametrize("config", STRATEGY_CONFIGS, ids=lambda c: c.strategy)
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_block_without_one_row_per_state_fails_naming_both_counts(self, config, extra):
        # one row fewer failed beam search with a bare KeyError; one extra leading row decoded the wrong tokens
        model = random_markov(5, n_words=4)
        prefix = [model.vocabulary.bos_id]
        assert generate(RowCount(model, 0), prefix, None, config) == generate(model, prefix, None, config)
        with pytest.raises(ValueError) as caught:
            generate(RowCount(model, extra), prefix, None, config)
        given, asked = map(int, re.fullmatch(r"logits_many gave (\d+) rows for (\d+) states", str(caught.value)).groups())
        assert given == asked + extra

    @pytest.mark.parametrize("config", [greedy_config(min_new=2), sample_config(min_new=2),
                                        beam_config(min_new=2, num_beams=3)], ids=lambda c: c.strategy)
    @pytest.mark.parametrize("method", ["none", "constant_shift"])
    @pytest.mark.parametrize("cast, name", [(lambda b: b.astype(np.int64), "int64"),
                                            (lambda b: b.astype(np.float32), "float32"),
                                            (lambda b: b.astype(np.float16), "float16"), (np.ndarray.tolist, "list")],
                             ids=["int64", "float32", "float16", "list"])
    def test_block_that_is_not_float64_fails_naming_its_dtype(self, config, method, cast, name):
        # an int64 block failed with numpy's own OverflowError or UFuncTypeError; a float32 one decoded the same
        # tokens with another log prob
        model = random_markov(5, n_words=4)
        prefix = [model.vocabulary.bos_id]
        chain = build_chain(ReweightConfig(method=method, c=2.0), [1, 2])
        assert generate(CastBlocks(model, np.asarray), prefix, chain, config) == generate(model, prefix, chain, config)
        with pytest.raises(TypeError, match=f"^logits_many gave {name}, not a float64 array$"):
            generate(CastBlocks(model, cast), prefix, chain, config)


class LiveStates:
    """A ``next_logits``-only view of a toy model that records each decode step's live states (last ids) in live order.

    The fallback path asks for every live hypothesis at every step, and its
    prefixes never repeat, so it shows what a decode steps through.
    """

    def __init__(self, model, prompt_length):
        self.model, self.vocabulary, self.prompt_length = model, model.vocabulary, prompt_length
        self.steps = []

    def next_logits(self, prefix):
        step = len(prefix) - self.prompt_length
        if step == len(self.steps):
            self.steps.append([])
        self.steps[step].append(prefix[-1])
        return self.model.next_logits(prefix)


def live_states(model, prefix, chain, config):
    """Each step's live states of the decode of ``prefix``, in live order."""
    recorder = LiveStates(model, len(prefix))
    generate(recorder, prefix, chain, config)
    return recorder.steps


class FaultAt:
    """A toy model whose logits after state ``state`` hold ``value`` at ``token``: a pure provider."""

    def __init__(self, model, state, token, value):
        self.model, self.vocabulary = model, model.vocabulary
        self.start, self.advance = model.start, model.advance
        self.state, self.token, self.value = state, token, value

    def logits_many(self, states):
        block = self.model.logits_many(states)
        block[[row for row, state in enumerate(states) if state == self.state], self.token] = self.value
        return block


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "+inf"])
@pytest.mark.parametrize("method", ["none", "constant_shift", "threshold_selection"])
@pytest.mark.parametrize("strategy", ["greedy", "sample", "beam"])
@pytest.mark.parametrize("n_words", [6, 1_100], ids=["V=8", "V=1102"])
def test_non_finite_provider_logits_fail_the_decode(n_words, strategy, method, value):
    """A NaN or +inf fails every strategy under every method, with one error naming the step and the live row.

    The entry sits, for the state of live row 2 of 3 at step 2 under beam
    search (row 0 otherwise), at a topic id, at another id, at the EOS column
    while it is masked, or at the last id, which at V = 1,102 lies past the
    last block of the block-max bound (V % top_k = 2). The error names the
    first step and live row that hold the state. At V = 8, beam search met
    the state of one of rows 0-1 at an earlier step, so the block of states
    not yet seen holds the fault in a row other than 2.
    """
    model = random_markov(5, n_words=n_words, eos_logit=-20.0)
    vocab = model.vocabulary
    chain = None if method == "none" else build_chain(ReweightConfig(method=method, c=2.0, theta=0.01), {2, 3})
    config = GenerationConfig(strategy=strategy, top_k=50, top_p=1.0, num_beams=3, min_new_tokens=4,
                              max_new_tokens=6, seed=3)
    steps = live_states(model, [vocab.bos_id], chain, config)
    state = steps[2][2 if strategy == "beam" else 0]
    step, row = min((step, states.index(state)) for step, states in enumerate(steps) if state in states)
    if strategy == "beam":
        assert (step, row) == (2, 2)
        assert n_words > 6 or set(steps[2][:2]) & {*steps[0], *steps[1]}
    for token in (3, 4, vocab.eos_id, vocab.size - 1):
        with pytest.raises(NonFiniteLogitsError) as error:
            with np.errstate(invalid="ignore"):
                generate(FaultAt(model, state, token, value), [vocab.bos_id], chain, config)
        assert str(error.value) == f"provider logits hold NaN or +inf at step {step}, row {row}"
        assert error.value.row == row


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_providers_own_non_finite_error_passes_through(strategy):
    """A ``NonFiniteLogitsError`` the provider raises itself (``as_logit_vector``, row None) reaches the caller as it is."""
    vocab = make_vocab(2)

    class Checked:
        vocabulary = vocab

        def next_logits(self, prefix):
            return as_logit_vector([0.0, 0.0, math.nan, 0.0])

    with pytest.raises(NonFiniteLogitsError, match="^logit vector holds NaN or \\+inf$") as error:
        generate(Checked(), [vocab.bos_id], None, GenerationConfig(strategy=strategy))
    assert error.value.row is None


class Asked:
    """A toy model whose ``logits_many`` records the states of each call."""

    def __init__(self, model):
        self.model, self.vocabulary = model, model.vocabulary
        self.start, self.advance = model.start, model.advance
        self.calls = []

    def logits_many(self, states):
        self.calls.append(list(states))
        return self.model.logits_many(states)


def _kept(chain):
    """Every (state, successors or survivors record) entry the chain keeps, over its stepping tables and EOS phases."""
    tables = [table for table in chain._memo.values() if isinstance(table, decoding._StepTable)]
    return [entry for table in tables for phase in (*table.phases, *table.records) for entry in phase.items()]


def phase_of(model, chain, config, state, step):
    """The EOS phase under which a decode keeps ``state``'s record at ``step``: masked (True) or not, or None for both.

    Sampling and beam search keep one survivors record for both phases, the
    same object under each, where EOS, read before its mask, ranks strictly
    below the k-th best score of the state's steered row with EOS masked
    (``_StepTable``); greedy search keeps its successors per phase.
    """
    masked = step < config.min_new_tokens
    if config.strategy == "greedy":
        return masked
    row = chain.apply(model.logits_many([state])[0])
    eos = model.vocabulary.eos_id
    score, row[eos] = row[eos], -math.inf
    return None if score < np.sort(row)[-min(config.top_k, row.size)] else masked


@pytest.mark.parametrize("config", [greedy_config(min_new=3, max_new=10),
                                    sample_config(min_new=3, max_new=10, seed=5, top_k=3),
                                    beam_config(min_new=3, max_new=10, num_beams=3, top_k=4, top_p=0.9)],
                         ids=lambda config: config.strategy)
def test_each_distinct_state_and_phase_is_asked_once_per_decode(config):
    """``logits_many`` gets each distinct (state, EOS phase) pair once, in the order the decode meets it.

    The pairs come from the ``next_logits`` path, which asks for every live
    hypothesis, and the phase from ``phase_of``: at top_k 3 and 4 every
    state's EOS (-20) ranks below its k-th survivor, so sampling and beam
    search ask for each state once across the phase switch, and greedy search
    once per phase. The chain keeps what a decode computed: another decode
    through the same chain, provider object and successor settings asks
    nothing, another sampling seed asks only for the pairs that no decode
    through them met yet, and a new chain, another provider object or
    another top_k or top_p asks again. Another num_beams asks again under
    greedy search, which keeps no survivors; under sampling and beam search
    it asks only for the pairs that no decode with that top_k and top_p met.
    The decode equals the reference decoder's, and the chain keeps at most
    top_k entries per state (V = 6 here): no row of the block outlives its
    step, and a survivors record holds no row wider than top_k.
    """
    model = random_markov(3, n_words=4, eos_logit=-20.0)
    prefix = [model.vocabulary.bos_id]
    method = ReweightConfig(method="constant_shift", c=1.5)
    chain = build_chain(method, {2, 4})

    def distinct(config):
        steps = live_states(model, prefix, build_chain(method, {2, 4}), config)
        pairs = [(state, phase_of(model, chain, config, state, step)) for step, states in enumerate(steps)
                 for state in states]
        return list(dict.fromkeys(pairs)), len(pairs)

    def asked(provider, chain, config):
        provider.calls = []
        result = generate(provider, prefix, chain, config)
        assert all(len(set(call)) == len(call) for call in provider.calls)
        return result, [state for call in provider.calls for state in call]

    provider = Asked(model)
    first, states = asked(provider, chain, config)
    met, live = distinct(config)
    assert states == [state for state, _ in met] and len(met) < live  # the decode meets some states again
    assert len(provider.calls) <= config.max_new_tokens
    assert asked(provider, chain, config) == (first, [])
    for seed in range(config.seed + 1, config.seed + 4):  # another seed asks only for the pairs no decode met yet
        pairs = distinct(replace(config, seed=seed))[0]
        assert asked(provider, chain, replace(config, seed=seed))[1] == [state for state, m in pairs if (state, m) not in met]
        met += [pair for pair in pairs if pair not in met]
    assert asked(provider, build_chain(method, {2, 4}), config) == (first, states)
    assert asked(Asked(model), chain, config) == (first, states)
    for change in (dict(top_k=config.top_k + 1), dict(top_p=0.5), dict(num_beams=config.num_beams + 1)):
        changed = replace(config, **change)
        expected = generate(model, prefix, build_chain(method, {2, 4}), changed)
        pairs = distinct(changed)[0]
        if "num_beams" in change and config.strategy != "greedy":  # the survivors of this top_k and top_p are kept
            pairs = [pair for pair in pairs if pair not in met]
            met += pairs
        assert asked(provider, chain, changed) == (expected, [state for state, _ in pairs])

    result = generate(model, prefix, chain, config)
    expected = REFERENCE[config.strategy](model, prefix, chain, config)
    assert (result.tokens, result.log_prob.hex()) == (expected.tokens, expected.log_prob.hex())
    assert result.tokens == first.tokens
    successor_settings = (config.strategy, config.top_k, config.top_p, config.num_beams)
    table = chain._memo[(id(model), *successor_settings)]
    assert table.model is model and all(table.phases)
    most = 1 if config.strategy == "greedy" else config.top_k
    for phase in table.phases:
        for successors in phase.values():
            if config.strategy == "greedy":  # one (log prob, token) pair
                parts, pairs = [[successors]], [successors]
            elif config.strategy == "sample":  # ids, probs and cumulative probs
                parts, pairs = successors, list(zip(*successors[1:], successors[0]))
            else:  # (log prob, token) pairs, best first
                parts, pairs = [successors], successors
            assert all(len(part) <= most < model.vocabulary.size for part in parts)
            assert all(type(value) is float for pair in pairs for value in pair[:-1])  # plain Python, made once
            assert all(type(pair[-1]) is int for pair in pairs)
    assert chain._memo[(id(provider), *successor_settings)].model is provider
    survivors = table.records  # indexed by whether EOS is masked
    if config.strategy == "greedy":  # its record dicts are its own and stay empty; the chain keeps only tables
        assert survivors == ({}, {}) and all(isinstance(kept, decoding._StepTable) for kept in chain._memo.values())
        return
    assert any(record is survivors[False].get(state) for state, record in survivors[True].items())  # both phases'
    records = chain._memo[(id(provider), *successor_settings)].records
    shared = {state for state, record in records[True].items() if records[False].get(state) is record}
    assert [set(records[True]) - shared, set(records[False]) - shared, shared] == [
        {state for state, p in met if p is phase} for phase in (True, False, None)]  # ``phase_of``
    for phase in survivors:
        for ids, kept, weights, norm in phase.values():
            assert len(ids) == len(kept) == len(weights) == config.top_k and type(norm) is float
            assert all(part.base is None or part.base.shape[-1] == config.top_k for part in (ids, kept, weights))


@pytest.mark.parametrize("order", [("sample", "beam"), ("beam", "sample")], ids=["sample-first", "beam-first"])
def test_sampling_and_beam_search_share_each_states_survivors(order):
    """A decode asks only for the pairs that no sampling or beam decode through the chain with its top_k and top_p met.

    The second decode of ``order`` finds the survivors records of the pairs
    the first one met, so it asks the provider for fewer pairs than a decode
    through a fresh chain does, and equals that decode bit for bit. A pair's
    phase is ``phase_of``'s. Another top_k or top_p shares nothing: such a
    decode asks for every pair it meets.
    """
    model = random_markov(3, n_words=4, eos_logit=-20.0)
    prefix = [model.vocabulary.bos_id]
    method = ReweightConfig(method="constant_shift", c=1.5)
    configs = {"sample": sample_config(min_new=3, max_new=10, seed=5, top_k=4, top_p=0.9),
               "beam": beam_config(min_new=3, max_new=10, num_beams=3, top_k=4, top_p=0.9)}

    def pairs(config):
        steps = live_states(model, prefix, build_chain(method, {2, 4}), config)
        met = [(state, phase_of(model, chain, config, state, step)) for step, states in enumerate(steps)
               for state in states]
        return list(dict.fromkeys(met))

    def asked(config):
        provider.calls = []
        result = generate(provider, prefix, chain, config)
        fresh = generate(model, prefix, build_chain(method, {2, 4}), config)
        assert (result.tokens, result.log_prob.hex()) == (fresh.tokens, fresh.log_prob.hex())
        return [state for call in provider.calls for state in call]

    chain, provider = build_chain(method, {2, 4}), Asked(model)
    first, second = (configs[strategy] for strategy in order)
    met = pairs(first)
    assert asked(first) == [state for state, _ in met]
    shared = [pair for pair in pairs(second) if pair in met]
    assert shared and asked(second) == [state for state, masked in pairs(second) if (state, masked) not in met]
    for change in (dict(top_k=3), dict(top_p=0.8)):
        changed = replace(second, **change)
        assert asked(changed) == [state for state, _ in pairs(changed)]


@st.composite
def shared_chain_cases(draw):
    """A chain and a mixed sequence of decodes through it: prompts, seeds, strategies, cuts, beams, windows, providers."""
    model = random_markov(draw(st.integers(0, 3)), n_words=draw(st.sampled_from([3, 5])), eos_logit=draw(st.sampled_from([-1.0, 1.0])))
    method = draw(st.sampled_from([ReweightConfig(), ReweightConfig(method="constant_shift", c=2.0),
                                   ReweightConfig(method="factor_scaling", alpha=0.5),
                                   ReweightConfig(method="threshold_selection", theta=0.05, beta=1.0)]))
    topic = draw(st.sets(st.integers(0, model.vocabulary.size - 1), max_size=3))
    prompts = st.lists(st.integers(0, model.vocabulary.size - 1), min_size=1, max_size=4)
    # Settings from small pools, so decodes often share a chain's entries or just miss them. Sampling and beam search,
    # in either order, share the survivors of a top_k and top_p whatever their num_beams; greedy keeps its own.
    strategies = draw(st.sampled_from([STRATEGIES, ("sample", "beam")]))
    cuts = draw(st.lists(st.sampled_from([(4, 0.8), (2, 0.8), (4, 1.0)]), min_size=1, max_size=2))
    decodes = []
    for _ in range(draw(st.integers(2, 8))):
        max_new = draw(st.integers(0, 8))
        top_k, top_p = draw(st.sampled_from(cuts))
        config = GenerationConfig(draw(st.sampled_from(strategies)), top_k, top_p, draw(st.integers(1, 3)), max_new,
                                  draw(st.integers(0, max_new)), draw(st.integers(0, 3)))
        decodes.append((draw(st.integers(0, 1)), draw(prompts), config))
    return model, method, topic, decodes


@settings(max_examples=150, deadline=None)
@given(shared_chain_cases())
def test_decodes_through_a_shared_chain_equal_decodes_through_fresh_ones(case):
    """Whatever a chain kept from earlier decodes, each decode through it is the decode through a fresh chain, bit for bit.

    Two providers share the chain: the toy model and a ``next_logits``-only
    view of it, whose states are prefixes.
    """
    model, method, topic, decodes = case
    providers = (model, NextLogitsOnly(model))
    chain = build_chain(method, topic)
    for which, prompt, config in decodes:
        shared = generate(providers[which], prompt, chain, config)
        fresh = generate(providers[which], prompt, build_chain(method, topic), config)
        assert (shared.tokens, shared.log_prob.hex()) == (fresh.tokens, fresh.log_prob.hex())


@st.composite
def phase_boundary_cases(draw):
    """An order-1 table whose EOS ranks above, below or exactly at each state's k-th survivor, and decodes through it.

    Rows hold small values and -inf, so scores tie and some rows have fewer
    than k finite entries; each state's EOS logit is then set against the
    k-th best score of its steered row with EOS masked. The topic leaves EOS
    alone, so its steered score is the one drawn. EOS is id 1 and wins every
    tie but BOS's.
    """
    vocab = make_vocab(draw(st.integers(2, 5)))
    size, eos = vocab.size, vocab.eos_id
    top_k = draw(st.integers(1, size))
    table = np.array(draw(st.lists(st.lists(st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0]), min_size=size,
                                                      max_size=size), min_size=size, max_size=size)))
    table[:, 2] = np.nan_to_num(table[:, 2], neginf=0.0)  # no row is masked whole
    method = draw(st.sampled_from([ReweightConfig(), ReweightConfig(method="constant_shift", c=1.0),
                                   ReweightConfig(method="factor_scaling", alpha=0.5)]))
    topic = draw(st.sets(st.integers(2, size - 1), max_size=2))
    chain = build_chain(method, topic)
    for state in range(size):
        row = chain.apply(table[state])
        row[eos] = -math.inf
        kth = np.sort(row)[-top_k]
        place = draw(st.sampled_from([-1.0, 0.0, 1.0]))  # below, at or above
        table[state, eos] = kth + place if kth > -math.inf else (0.0 if place > 0 else -math.inf)
    max_new = draw(st.integers(1, 6))
    top_p, num_beams = draw(st.sampled_from([1.0, 0.9, 0.6])), draw(st.integers(1, 3))
    decodes = [(draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3)),
                GenerationConfig(draw(st.sampled_from(["sample", "beam"])), top_k, top_p, num_beams, max_new,
                                 draw(st.integers(0, max_new)), draw(st.integers(0, 3))))
               for _ in range(draw(st.integers(2, 5)))]
    return FewRowsModel(vocab, table), method, topic, decodes


@settings(max_examples=300, deadline=None)
@given(phase_boundary_cases())
def test_a_record_both_eos_phases_share_gives_the_decode_of_a_fresh_chain(case):
    """Sampling and beam decodes through one chain, with any min_new_tokens, equal fresh-chain and reference decodes.

    The chain shares a state's survivors record between the EOS phases only
    where EOS ranks strictly below the k-th survivor (``_StepTable``), so a
    record kept in one phase serves the other only where masking EOS moves no
    survivor: not on a tie at the k-th score, and not in a row with fewer than
    k finite entries.
    """
    model, method, topic, decodes = case
    chain = build_chain(method, topic)
    for prompt, config in decodes:
        shared = generate(model, prompt, chain, config)
        fresh = generate(model, prompt, build_chain(method, topic), config)
        expected = REFERENCE[config.strategy](model, prompt, build_chain(method, topic), config)
        assert (shared.tokens, shared.log_prob.hex()) == (fresh.tokens, fresh.log_prob.hex())
        assert (shared.tokens, shared.log_prob.hex()) == (expected.tokens, expected.log_prob.hex())


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("method", [ReweightConfig(method="constant_shift", c=2.0),
                                    ReweightConfig(method="threshold_selection", theta=0.005, beta=1.0)],
                         ids=lambda method: method.method)
def test_a_long_decode_equals_the_reference_and_repeats_on_memo_hits_alone(strategy, method):
    """200 new tokens through the shipped fixture (V=226), steered toward topic 0.

    Sampling takes its uniforms from the stream 64 at a time, so the decode
    crosses several of those draws; it equals the reference decoder, which
    calls ``random()`` once per token, in its tokens and bit for bit in its
    log prob. A second decode through the same chain finds every live state
    in the memo: it asks the provider nothing and equals the first bit for bit.
    """
    model = load_toy_model(toy_model_path())
    token_set = topic_token_set(0, load_topic_model(topic_model_path()), model.vocabulary, 25)
    prefix = [model.vocabulary.bos_id]
    for seed in (0, 1, 2) if strategy == "sample" else (0,):
        chain = build_chain(method, token_set)
        config = GenerationConfig(strategy=strategy, min_new_tokens=200, max_new_tokens=200, seed=seed)
        provider = Asked(model)
        first = generate(provider, prefix, chain, config)
        expected = REFERENCE[strategy](model, prefix, chain, config)
        assert len(first.tokens) == 200 and provider.calls
        assert (first.tokens, first.log_prob.hex()) == (expected.tokens, expected.log_prob.hex())
        provider.calls = []
        second = generate(provider, prefix, chain, config)
        assert provider.calls == []
        assert (second.tokens, second.log_prob.hex()) == (first.tokens, first.log_prob.hex())


def test_a_state_that_fails_is_not_kept():
    """A block that raises leaves no successors or survivors on the chain, so every decode meeting its state fails alike."""
    model = random_markov(5, n_words=4, eos_logit=-20.0)
    prefix = [model.vocabulary.bos_id]
    chain = build_chain(ReweightConfig(method="constant_shift", c=2.0), {2, 3})
    for config in (greedy_config(min_new=2, max_new=6), sample_config(min_new=2, max_new=6, seed=1),
                   beam_config(min_new=2, max_new=6, num_beams=3)):
        state = live_states(model, prefix, chain, config)[2][-1]
        faulty = FaultAt(model, state, 4, np.nan)
        messages = []
        for _ in range(2):
            with pytest.raises(NonFiniteLogitsError) as error:
                generate(faulty, prefix, chain, config)
            messages.append(str(error.value))
        with pytest.raises(NonFiniteLogitsError) as error:
            generate(faulty, prefix, build_chain(chain.config, chain.ids), config)
        assert messages == [str(error.value)] * 2
        table = chain._memo[id(faulty), config.strategy, config.top_k, config.top_p, config.num_beams]
        assert any(table.phases) and all(state not in phase for phase in table.phases)  # what came before is kept
        if config.strategy != "greedy":  # nor is the state's survivors record
            assert any(table.records) and all(state not in phase for phase in table.records)


def test_prefix_states_share_one_prompt_tuple():
    """The chain keeps every state its decode met; the fallback path's states hold the prompt once between them."""
    model = random_markov(2, eos_logit=-20.0)
    prompt = [model.vocabulary.bos_id, *range(2, model.vocabulary.size)] * 50
    config = beam_config(min_new=0, max_new=8, num_beams=3)
    chain = ProcessorChain()
    generate(NextLogitsOnly(model), prompt, chain, config)
    states = [state for state, _ in _kept(chain)]
    assert len(states) > config.num_beams and len({id(prompt_ids) for prompt_ids, _ in states}) == 1
    assert all(list(prompt_ids) == prompt and len(tokens) < config.max_new_tokens for prompt_ids, tokens in states)


class Masked:
    """A toy model whose logits are -inf at the ``masked`` ids, through both of its halves."""

    def __init__(self, model, masked):
        self.model, self.vocabulary, self.masked = model, model.vocabulary, sorted(masked)
        self.start, self.advance = model.start, model.advance

    def logits_many(self, states):
        block = self.model.logits_many(states)
        block[:, self.masked] = -np.inf
        return block

    def next_logits(self, prefix):
        return self.logits_many([self.start(prefix)])[0]


@pytest.mark.parametrize("strategy", ["greedy", "sample", "beam"])
@pytest.mark.parametrize("reweight", [
    ReweightConfig(),
    ReweightConfig(method="constant_shift", c=3.0),
    ReweightConfig(method="factor_scaling", alpha=-2.0),
    ReweightConfig(method="factor_scaling", alpha=0.0),
    ReweightConfig(method="threshold_selection", theta=0.0, beta=1.0),
    ReweightConfig(method="threshold_selection", theta=0.01, beta=1.0),
], ids=["none", "shift", "scale-2", "scale0", "threshold0", "threshold0.01"])
def test_provider_minus_inf_stays_a_mask(strategy, reweight):
    """A provider's -inf masks its token under every method, even one that would move it (alpha <= 0, theta = 0)."""
    model = random_markov(2, n_words=6, eos_logit=-20.0)
    masked = {3, 5, 6}
    provider = Masked(model, masked)
    chain = build_chain(reweight, {2, 3, 5})  # two of the three topic ids are masked
    config = GenerationConfig(strategy=strategy, top_k=8, top_p=1.0, num_beams=3, min_new_tokens=0,
                              max_new_tokens=6, seed=1)
    result = generate(provider, [model.vocabulary.bos_id], chain, config)
    assert not masked & set(result.tokens) and math.isfinite(result.log_prob)
    if reweight.method == "none":  # the reference decoders take -inf as it comes
        expected = REFERENCE[strategy](provider, [model.vocabulary.bos_id], None, config)
        assert (result.tokens, result.log_prob.hex()) == (expected.tokens, expected.log_prob.hex())


def test_provider_with_start_but_no_logits_many_is_rejected():
    model = random_markov(1)
    started = []

    class Half:
        vocabulary = model.vocabulary

        def start(self, prefix):
            started.append(prefix)
            return model.start(prefix)

        advance = staticmethod(model.advance)

    for config in (greedy_config(), sample_config(), beam_config()):
        with pytest.raises(TypeError, match="Half has start but no logits_many"):
            generate(Half(), [model.vocabulary.bos_id], None, config)
    assert not started


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
    In half the cases every NaN and +inf then becomes -inf, a mask.
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
    if draw(st.booleans()):
        scores[~(scores < np.inf)] = -np.inf
    top_p = draw(st.one_of(st.sampled_from([1.0, 0.95, 0.5, 1e-9]), st.floats(1e-9, 1.0)))
    return scores, top_k, top_p


@settings(max_examples=500, deadline=None)
@given(truncation_cases())
def test_truncation_matches_full_sort_reference(case):
    """Partial selection and the full sort keep the reference's ids, bit for bit; a NaN or +inf is the one error."""
    scores, top_k, top_p = case
    outcome = _truncation_outcome(truncate_top_k_top_p, scores, top_k, top_p)
    if (scores < np.inf).all():  # finite entries and -inf masks
        assert outcome == _truncation_outcome(reference_decoding.truncate_top_k_top_p, scores, top_k, top_p)
    else:
        assert outcome is NonFiniteLogitsError


@st.composite
def block_truncation_cases(draw):
    """Blocks of 1-6 rows, mostly over 1,024 entries, for the row-wise truncation.

    Rows are drawn like ``truncation_cases``: a few distinct values over a
    background that may be -inf or NaN, with -inf, +inf and NaN sprinkled
    in. Some rows instead hit a case of the block-max bound (k = min(top_k,
    V) blocks of V // k entries): more than 4 * top_k boosted ids tied at
    5.0 over N(0, 1) logits, so more than 4 * top_k entries reach the
    bound; NaN only past the last block (V need not be a multiple of
    top_k); or one block all -inf (bound -inf). Some rows repeat an earlier
    row (tied rows), and a row may be all NaN. In half the blocks every NaN
    and +inf then becomes -inf, a mask.
    """
    rows = draw(st.integers(1, 6))
    size = draw(st.one_of(st.integers(1025, 3000), st.integers(1, 80)))
    top_k = draw(st.one_of(st.integers(1, 64), st.integers(1, size + 5)))
    top_p = draw(st.one_of(st.sampled_from([1.0, 0.95, 0.5, 1e-9]), st.floats(1e-9, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, *rng.normal(0.0, 5.0, 3)], int(rng.integers(1, 6)))
    k = min(top_k, size)
    blocks_end = size - size % k  # ids at or past it lie outside every block of the bound
    block = np.empty((rows, size))
    for row in block:
        row[:] = rng.choice([pool[0], pool[0], -np.inf, np.nan])
        peaks = rng.choice(size, int(rng.integers(0, min(size, 3 * top_k) + 1)), replace=False)
        row[peaks] = rng.choice(pool, peaks.size)
        specials = rng.choice(size, int(rng.integers(0, min(size, 4) + 1)), replace=False)
        row[specials] = rng.choice([-np.inf, np.inf, np.nan], specials.size)
        bound_case = draw(st.sampled_from(["drawn", "drawn", "boosted", "nan past the blocks", "-inf block"]))
        if bound_case == "boosted":
            row[:] = rng.normal(0.0, 1.0, size)
            row[rng.choice(size, min(size, 4 * top_k + int(rng.integers(1, 1000))), replace=False)] = 5.0
        elif bound_case == "nan past the blocks":
            row[np.isnan(row)] = pool[0]
            row[blocks_end + rng.choice(size - blocks_end, int(rng.integers(0, size - blocks_end + 1)),
                                        replace=False)] = np.nan
        elif bound_case == "-inf block":
            width = size // k
            start = width * int(rng.integers(k))
            row[start:start + width] = -np.inf
    for i in range(1, rows):
        kind = draw(st.sampled_from(["own", "own", "tie", "nan"]))
        if kind == "tie":
            block[i] = block[draw(st.integers(0, i - 1))]
        elif kind == "nan":
            block[i] = np.nan
    if draw(st.booleans()):
        block[~(block < np.inf)] = -np.inf
    return block, top_k, top_p


def records(block, top_k, top_p):
    """``decoding._truncate`` of ``block`` under ``top_k`` and ``top_p``, its norms summed over a fresh zero row."""
    return decoding._truncate(block, sample_config(top_k=top_k, top_p=top_p), np.zeros(block.shape[1]))


@settings(max_examples=300, deadline=None)
@given(block_truncation_cases())
def test_row_wise_truncation_matches_reference_row_by_row(case):
    """Each row of a block truncates to the reference's vector for that row, bit for bit.

    A block that holds NaN or +inf fails with the one error, naming its
    first row that holds one.
    """
    block, top_k, top_p = case
    faulty = ~(block < np.inf).all(axis=1)
    if faulty.any():
        with pytest.raises(NonFiniteLogitsError) as error:
            records(block.copy(), top_k, top_p)
        assert error.value.row == int(faulty.argmax())
        return
    expected = [_truncation_outcome(reference_decoding.truncate_top_k_top_p, row, top_k, top_p) for row in block]
    failed = [outcome for outcome in expected if isinstance(outcome, type)]

    def truncate(scores, top_k, top_p):
        out = np.full_like(scores, -np.inf)
        for row, (ids, kept, _, _) in zip(out, records(scores, top_k, top_p)):
            row[ids] = kept
        return out

    outcome = _truncation_outcome(truncate, block.copy(), top_k, top_p)
    if failed:
        assert outcome == failed[0]
    else:
        assert outcome == b"".join(expected)
        ids = [ids for ids, _, _, _ in records(block, top_k, top_p)]
        assert np.array_equal(ids, (-block).argsort(axis=1, kind="stable")[:, : min(top_k, block.shape[1])])


def _lines_run(function, *args):
    """``function(*args)`` and the stripped source lines of ``function`` that the call ran."""
    code, lines = function.__code__, set()

    def in_function(frame, event, arg):
        if event == "line":
            lines.add(linecache.getline(code.co_filename, frame.f_lineno).strip())
        return in_function

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_function if frame.f_code is code else None)
    try:
        return function(*args), lines
    finally:
        sys.settrace(previous)


def _block_max_bound(row, k):
    """The smallest maximum of the k blocks of len(row) // k entries that start the row."""
    return row[: row.size - row.size % k].reshape(k, -1).max(axis=1).min()


class TestBlockMaxBound:
    """Each path of ``_truncate`` runs on a row built for it and keeps the stable sort's ids.

    V = 5,003 is not a multiple of top_k = 50, so ids 5,000-5,002 lie
    outside every block of the bound. A row with a NaN takes no path: a NaN
    in a block makes the bound NaN, and one past the blocks is looked for
    there.
    """

    SIZE, TOP_K = 5_003, 50
    # a line that only the path of each case runs
    PATHS = {
        "sort whole row": 'order = (-row).argsort(kind="stable")',
        "sorted candidates": "ranked.partition(k - 1)",
        "many boosted ids": "ranked.partition(k - 1)",
        "-inf block": "ranked.partition(k - 1)",
    }

    def _row(self, case):
        rng = np.random.default_rng(7)
        row = rng.normal(0.0, 1.0, self.SIZE)
        if case == "sort whole row":
            row = row[:1_000]
        elif case == "many boosted ids":  # more than 4 * top_k ids at 5.0, all at or above the bound
            row[rng.choice(self.SIZE, 1_000, replace=False)] = 5.0
        elif case == "nan past the blocks":
            row[self.SIZE - self.SIZE % self.TOP_K:] = np.nan
        elif case == "-inf block":
            row[700:800] = -np.inf  # block 7 of 100-entry blocks
        elif case == "nan bound":
            row[123] = np.nan
        return row

    def test_rows_have_the_bounds_they_are_built_for(self):
        k = self.TOP_K
        assert self.SIZE % k
        row = self._row("nan past the blocks")
        assert np.isnan(row).any() and not np.isnan(_block_max_bound(row, k))
        assert _block_max_bound(self._row("-inf block"), k) == -np.inf
        assert np.isnan(_block_max_bound(self._row("nan bound"), k))
        few, many = (self._row(case) for case in ("sorted candidates", "many boosted ids"))
        assert k <= (few >= _block_max_bound(few, k)).sum() <= 4 * k < (many >= _block_max_bound(many, k)).sum()

    @pytest.mark.parametrize("case", list(PATHS))
    @pytest.mark.parametrize("top_p", [1.0, 0.9])
    def test_path_runs_and_keeps_the_stable_sort_ids(self, case, top_p):
        row, k = self._row(case), self.TOP_K
        config = sample_config(top_k=k, top_p=top_p)
        [(ids, kept, _, _)], lines = _lines_run(decoding._truncate, row[None], config, np.zeros(row.size))
        assert {line for line in self.PATHS.values() if line in lines} == {self.PATHS[case]}
        assert ids.tolist() == (-row).argsort(kind="stable")[:k].tolist()
        out = np.full_like(row, -np.inf)
        out[ids] = kept
        assert out.tobytes() == reference_decoding.truncate_top_k_top_p(row, k, top_p).tobytes()

    @pytest.mark.parametrize("case", ["nan past the blocks", "nan bound"])
    def test_nan_fails_the_block_naming_its_row(self, case):
        block = np.vstack([np.zeros(self.SIZE), self._row(case), np.full(self.SIZE, np.nan)])
        with pytest.raises(NonFiniteLogitsError, match="at row 1$"):
            records(block, self.TOP_K, 1.0)


def test_nan_outside_a_finite_top_k_below_the_size_rule_fails():
    # A whole-row sort puts NaN last, so the NaN at id 3 is no survivor of the top 50 (ids 150-199).
    row = np.arange(200.0)
    row[3] = np.nan
    assert np.isfinite(row[(-row).argsort(kind="stable")[:50]]).all()
    for block in (row[None], np.vstack([np.zeros(200), row])):
        with pytest.raises(NonFiniteLogitsError, match=f"at row {len(block) - 1}$"):
            records(block, 50, 0.9)


class FixedUniforms:
    """An rng stand-in whose ``random()`` returns the given uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = iter(uniforms)

    def random(self):
        return next(self.uniforms)


@st.composite
def selection_cases(draw):
    """Large steered vectors for the sampling and beam selectors.

    Sizes of 1,000-4,000, now and then 50,000, so the normaliser's pairwise
    sum runs over many blocks. Scores are N(0, s) or rounded onto a coarse
    grid (ties), over a background that may be -inf, with -inf sprinkled
    in. Uniforms include 0, the largest double below 1 (which can land past
    the last cumulative probability) and values of the CDF itself.
    """
    size = 50_000 if draw(st.integers(0, 9)) == 9 else draw(st.integers(1000, 4000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, draw(st.sampled_from([0.5, 1.0, 3.0, 10.0])), size)
    if draw(st.booleans()):
        values = np.round(values * 2.0) / 2.0
    top_k = draw(st.one_of(st.integers(8, 64), st.integers(8, size)))
    scores = values.copy()
    if draw(st.booleans()):  # -inf background: only a few finite peaks
        peaks = rng.choice(size, int(rng.integers(1, min(size, 3 * top_k) + 1)), replace=False)
        scores = np.full(size, -np.inf)
        scores[peaks] = values[peaks]
    scores[rng.choice(size, int(rng.integers(0, 20)), replace=False)] = -np.inf
    kept = rng.integers(size)
    scores[kept] = values[kept]  # so at least one entry is finite
    config = GenerationConfig(
        strategy="sample",
        top_k=top_k,
        top_p=draw(st.one_of(st.sampled_from([1.0, 0.99, 0.95, 0.5]), st.floats(1e-3, 1.0))),
        num_beams=draw(st.integers(1, 8)),
    )
    truncated = truncate_top_k_top_p(scores, config.top_k, config.top_p)
    cdf = np.cumsum(softmax(truncated))
    exact = [float(c) for c in cdf[truncated > -np.inf] if c < 1.0]  # a draw on a step of the CDF
    uniforms = draw(st.lists(
        st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                  st.sampled_from([0.0, float(np.nextafter(1.0, 0.0)), *exact])),
        min_size=1, max_size=6,
    ))
    return scores, config, uniforms


def _selections(selector, scores, config, uniforms):
    rng = FixedUniforms(uniforms)
    with np.errstate(over="ignore"):
        return [[(token, float(log_prob).hex()) for token, log_prob in selector(scores, config, rng)]
                for _ in uniforms]


def selection(strategy, block, live, config, rng, zeros):
    """The package's selection of a step on ``block``: each row's successors, then the strategy's pick.

    Sampling and beam search build each row's successors from its survivors
    record (``_truncate``, its norms summed over ``zeros``); greedy's are
    ``_greedy``'s. ``live`` holds each hypothesis's sort key, its negated
    cumulative log prob (-0.0 for a total of zero), as ``_decode`` keeps it.
    Returns the kept (cumulative log prob, token, source row), best first,
    each total negated back from the pick's sort key. A sampling pick draws
    its uniform from ``rng.random()``.
    """
    build, pick = decoding._SELECTORS[strategy]
    if build is None:
        successors = decoding._greedy(block)
    else:
        successors = [build(record, config) for record in decoding._truncate(block, config, zeros)]
    uniforms = None if rng is None else iter(rng.random, None)
    return [(-key, token, source) for key, token, source in pick(successors, live, config, uniforms)]


def one_row_selector(strategy):
    """The package's selection on a one-row block, as the reference's [(token, log prob)].

    The one hypothesis has sort key -0.0, as a decode's first: any log prob,
    -0.0 included, subtracted from it and negated back gives that log prob bit
    for bit. The zero row is a fresh one per call.
    """
    def select(scores, config, rng):
        block = np.array(scores, dtype=np.float64)[None]
        kept = selection(strategy, block, [(-0.0,)], config, rng, np.zeros(block.shape[1]))
        return [(token, total) for total, token, _ in kept]

    return select


@settings(max_examples=200, deadline=None)
@given(selection_cases())
def test_survivor_selectors_match_full_vector_reference(case):
    """Selection over the survivors is bit for bit the selection over the whole truncated vector."""
    scores, config, uniforms = case
    for strategy in ("sample", "beam"):
        expected = _selections(reference_decoding.SELECTORS[strategy], scores, config, uniforms)
        assert _selections(one_row_selector(strategy), scores, config, uniforms) == expected


class CountingExp:
    """``numpy`` as ``decoding`` sees it, with ``exp`` recording the entries per row of what it exponentiates."""

    def __init__(self, sizes):
        self.sizes = sizes

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.sizes.append(np.shape(x)[-1])
        return np.exp(x, *args, **kwargs)


class TestSelectionOverSurvivors:
    @pytest.mark.parametrize("strategy", ["sample", "beam"])
    def test_no_normalisation_over_the_whole_vocabulary(self, monkeypatch, strategy):
        # Apart from the full-length zero-row sum of each record's norm, a step
        # exponentiates and normalises at most top_k entries per hypothesis:
        # one exp(kept - top) of each stepped row's survivors gives the nucleus
        # mass and the weights that the selector normalises.
        sizes, normalised = [], []  # entries per hypothesis
        monkeypatch.setattr(decoding, "np", CountingExp(sizes))
        for name in ("softmax", "log_softmax"):
            def counting(scores, normalise=getattr(decoding, name)):
                sizes.append(np.shape(scores)[-1])
                return normalise(scores)

            monkeypatch.setattr(decoding, name, counting)

        def truncate(x, config, zeros, cut=decoding._truncate):
            made = cut(x, config, zeros)
            assert all(type(norm) is float for *_, norm in made)
            normalised.extend(len(weights) for _, _, weights, _ in made)
            return made

        monkeypatch.setattr(decoding, "_truncate", truncate)
        model = make_markov(make_vocab(1_000), seed=3)
        provider = Asked(model)
        config = GenerationConfig(strategy=strategy, top_k=20, top_p=0.9, num_beams=3,
                                  min_new_tokens=6, max_new_tokens=6, seed=1)
        result = generate(provider, [model.vocabulary.bos_id], None, config)
        assert len(result.tokens) == 6
        assert len(provider.calls) == 6  # each step asks
        assert len(sizes) == len(normalised) == sum(map(len, provider.calls))  # one exp and one normaliser per row asked
        assert max(sizes + normalised) <= config.top_k

    def test_survivor_whose_log_prob_overflows_is_dropped(self):
        # -1e308 survives top-k, but its log prob -1e308 - 1e308 overflows to -inf
        scores = np.array([1e308, -1e308, 0.0, 5.0])
        config = beam_config(top_k=4, top_p=1.0, num_beams=4)
        with np.errstate(over="ignore"):
            expected = reference_decoding.SELECTORS["beam"](scores, config, None)
            assert one_row_selector("beam")(scores, config, None) == expected
        assert [token for token, _ in expected] == [0, 2, 3]


def _hex_kept(kept):
    return [(float(total).hex(), token, source) for total, token, source in kept]


def reference_beam_step(block, live, config):
    """The reference beam step: each row's selection on its own, then one sort of all candidates."""
    candidates = []
    for source, (row, (key,)) in enumerate(zip(block, live)):
        for token, log_prob in reference_decoding.SELECTORS["beam"](row, config, None):
            candidates.append((-key + log_prob, token, source))
    candidates.sort(key=lambda candidate: (-candidate[0], candidate[1], candidate[2]))
    return candidates[: config.num_beams]


def _beam_step_outcomes(block, live, config):
    """The package's and the reference's beam step on ``block``: each one's hex totals, or the type it raises."""
    def outcome(step):
        try:
            with np.errstate(over="ignore"):
                return _hex_kept(step())
        except ValueError as exc:
            return type(exc)

    return (outcome(lambda: selection("beam", block, live, config, None, np.zeros(block.shape[1]))),
            outcome(lambda: reference_beam_step(block, live, config)))


# Two scores that differ by one ulp but whose log probs round to the same value when the row's
# log-sum-exp is log(2): x - log(2) crosses 2**53, where the spacing of doubles doubles.
ABOVE, BELOW = -(2.0**53 - 1), -(2.0**53)


class TestBeamBoundary:
    """A row's best num_beams are its first survivors, save a tie run across the boundary."""

    def test_rounding_tie_is_filled_by_the_lowest_ids(self):
        # survivor order: ids 0, 2 (score 0), 3 (ABOVE), 1, 4 (BELOW); the last three tie in log prob
        row = np.array([0.0, BELOW, 0.0, ABOVE, BELOW])
        lse = math.log(2.0)
        assert ABOVE > BELOW and ABOVE - lse == BELOW - lse
        config = beam_config(top_k=5, top_p=1.0, num_beams=3)
        kept, expected = _beam_step_outcomes(row[None], [(-0.0,)], config)
        assert kept == expected
        assert [token for _, token, _ in kept] == [0, 2, 1]
        assert kept[2][0] == (BELOW - lse).hex()

    def test_top_k_at_most_num_beams(self):
        block = np.random.default_rng(3).normal(0.0, 2.0, (3, 40))
        live = [(1.0,), (1.25,), (4.0,)]
        for top_k in (1, 2, 4):
            config = beam_config(top_k=top_k, top_p=1.0, num_beams=4)
            kept, expected = _beam_step_outcomes(block, live, config)
            assert kept == expected and len(kept) == min(4, 3 * top_k)

    def test_fewer_nucleus_survivors_than_num_beams(self):
        block = np.array([[12.0, 0.0, 1.0, 11.0, 0.5], [0.0, 0.0, 30.0, 0.0, 0.0]])
        config = beam_config(top_k=5, top_p=0.9, num_beams=4)
        kept, expected = _beam_step_outcomes(block, [(2.0,), (0.5,)], config)
        assert kept == expected
        assert sorted((source, token) for _, token, source in kept) == [(0, 0), (0, 3), (1, 2)]

    @pytest.mark.parametrize("beams", [1, 2, 3, 5, 8])
    def test_rows_of_one_block_end_at_different_boundaries(self, beams):
        # every survivor is finite, so the block is cut at once
        cut_at_once = np.array([
            [0.0, 3e-17, 0.0, 1e-17, 2e-17, -30.0],  # five survivors whose log probs all round to -log(5)
            [0.0, 40.0, 1.0, 2.0, 3.0, 4.0],  # a nucleus of one
            [12.0, 0.0, 1.0, 11.0, 0.5, 0.25],  # a nucleus of two
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # equal scores: a tie run that rounding did not make
        ])
        tied = log_softmax(cut_at_once[0, :5])
        assert len(set(cut_at_once[0, :5].tolist())) == 4 and len(set(tied.tolist())) == 1
        # a masked survivor: the block is cut row by row
        row_by_row = np.array([
            [0.0, BELOW, 0.0, ABOVE, BELOW, -np.inf],
            [-np.inf, 1.0, -np.inf, 0.5, 0.25, 1.0],  # masks at low ids end the row's survivors
            [-np.inf, -np.inf, 2.0, -np.inf, -np.inf, -np.inf],
        ])
        live = [(-0.0,), (0.5,), (1.0,), (0.75,)]
        for block, top_p in ((cut_at_once, 0.9), (row_by_row, 1.0)):
            config = beam_config(top_k=6, top_p=top_p, num_beams=beams)
            kept, expected = _beam_step_outcomes(block, live[: len(block)], config)
            assert kept == expected


@st.composite
def beam_step_cases(draw):
    """Blocks of 1-5 rows whose log probs often tie at a row's num_beams boundary.

    Scores come from a small pool: 0 and scores within 1e-16 of it (whose
    log probs round to one value), the two ``ABOVE``/``BELOW`` neighbours
    and their neighbours, a few normal draws and -inf, and in half the
    blocks also +inf and NaN, so rows hold exact ties, rounding ties, masked
    survivors and nuclei of every size. Rows are short, or now and then
    longer than the block-max bound's threshold.
    """
    rows = draw(st.integers(1, 5))
    size = draw(st.one_of(st.integers(2, 40), st.integers(1025, 1500)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [0.0, 1e-17, 2e-17, -1e-17, ABOVE, BELOW, ABOVE + 1.0, BELOW - 2.0, *rng.normal(0.0, 2.0, 3)]
    block = rng.choice(pool, (rows, size))
    specials_pool = [-np.inf, np.inf, np.nan] if draw(st.booleans()) else [-np.inf]
    for row in block:
        specials = rng.choice(size, int(rng.integers(0, min(size, 5) + 1)), replace=False)
        row[specials] = rng.choice(specials_pool, specials.size)
    config = beam_config(
        top_k=draw(st.integers(1, size + 3)),
        top_p=draw(st.one_of(st.sampled_from([1.0, 0.99, 0.9, 0.5]), st.floats(1e-3, 1.0))),
        num_beams=draw(st.integers(1, 8)),
    )
    live = [(key,) for key in draw(st.lists(
        st.sampled_from([-0.0, 0.5, 1.0, 2.0**53, float(rng.normal(3.0, 1.0))]), min_size=rows, max_size=rows))]
    return block, live, config


@settings(max_examples=400, deadline=None)
@given(beam_step_cases())
def test_beam_step_matches_reference_rows(case):
    """A block's beam step keeps the reference's successors with bit-equal totals, or fails as it does.

    A block that holds NaN or +inf fails with the one error instead.
    """
    block, live, config = case
    kept, expected = _beam_step_outcomes(block, live, config)
    assert kept == (expected if (block < np.inf).all() else NonFiniteLogitsError)


def test_zero_workspace_is_all_zeros_again_after_each_selection():
    """Selections that share one zero row match selections on fresh zeros, bit for bit.

    The beam steps shrink from 4 live rows to 1, as when beams end, and
    sampling steps one row; all of them sum their norms over the same row.
    """
    rng = np.random.default_rng(5)
    size = 3_000
    zeros = np.zeros(size)
    beam = beam_config(top_k=50, top_p=0.95, num_beams=4)
    for rows in (4, 3, 1):
        steered = rng.normal(0.0, 3.0, (rows, size))
        live = [(key,) for key in rng.normal(5.0, 1.0, rows).tolist()]
        kept = selection("beam", steered, live, beam, None, zeros)
        assert zeros.tobytes() == bytes(zeros.nbytes)
        assert _hex_kept(kept) == _hex_kept(selection("beam", steered, live, beam, None, np.zeros(size)))
    sample = sample_config(top_k=50, top_p=0.95)
    for seed in range(3):
        steered = rng.normal(0.0, 3.0, (1, size))
        kept = selection("sample", steered, [(-0.0,)], sample, np.random.default_rng(seed), zeros)
        assert zeros.tobytes() == bytes(zeros.nbytes)
        fresh = selection("sample", steered, [(-0.0,)], sample, np.random.default_rng(seed), np.zeros(size))
        assert _hex_kept(kept) == _hex_kept(fresh)


_GREEDY = greedy_config()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-np.inf, 0.0, 1e300, -1e300])), min_size=1, max_size=80)
    .filter(lambda row: any(np.isfinite(row))),
    st.floats(-50.0, 0.0),
)
def test_greedy_log_prob_is_log_softmax_entry(row, cumulative):
    """Greedy's log prob equals ``log_softmax(row)[token]`` bit for bit, -inf masks and overflows included."""
    row = np.array(row)
    with np.errstate(over="ignore"):
        key = -cumulative or -0.0  # a total of zero, either sign, is key -0.0
        (total, token, source), = selection("greedy", row[None], [(key,)], _GREEDY, None, None)
        expected = -(key - float(log_softmax(row)[token]))
    assert (float(total).hex(), token, source) == (expected.hex(), int(row.argmax()), 0)


@pytest.mark.parametrize("row", [[0.0, np.nan, 1.0], [np.nan, np.nan], [1.0, np.inf], [-np.inf, -np.inf], [np.inf, np.nan]],
                         ids=["nan", "all-nan", "+inf", "all-masked", "+inf-and-nan"])
def test_greedy_rejects_what_log_softmax_rejects(row):
    """Greedy fails where ``log_softmax`` does: NaN or +inf with the provider error, a masked row with its own."""
    row = np.array(row)
    with pytest.raises(ValueError):
        log_softmax(row)
    with pytest.raises(ValueError) as got:
        selection("greedy", row[None], [(-0.0,)], _GREEDY, None, None)
    if (row < np.inf).all():
        assert str(got.value) == "every token of a logit vector is masked"
    else:
        assert type(got.value) is NonFiniteLogitsError and str(got.value) == "provider logits hold NaN or +inf at row 0"
