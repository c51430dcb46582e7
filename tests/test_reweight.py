import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reweight as reference
import topicsteer.reweight as reweight
from topicsteer.models import NonFiniteLogitsError, softmax
from topicsteer.reweight import (
    ProcessorChain,
    ReweightConfig,
    VocabularyMismatchError,
    apply_reweight,
    build_chain,
    constant_shift,
    factor_scaling,
    threshold_selection,
)
from topicsteer.topics import TopicTokenSet


def random_case(rng, low=-8.0, high=8.0):
    """Random logit vector plus a proper nonempty topic subset."""
    size = int(rng.integers(2, 40))
    scores = rng.uniform(low, high, size)
    n_topic = int(rng.integers(1, size))
    topic = rng.choice(size, size=n_topic, replace=False)
    return scores, set(int(t) for t in topic)


class TestConstantShift:
    def test_basic_shift(self):
        out = constant_shift(np.array([2.0, 1.0, 0.0]), {2}, 5.0)
        assert out.tolist() == [2.0, 1.0, 5.0]

    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores, topic = random_case(rng)
            assert np.array_equal(constant_shift(scores, topic, 0.0), scores)

    def test_negative_shift(self):
        out = constant_shift(np.array([1.0, 1.0]), {0, 1}, -3.0)
        assert out.tolist() == [-2.0, -2.0]

    def test_input_not_mutated(self):
        scores = np.array([1.0, 2.0])
        constant_shift(scores, {0}, 9.0)
        assert scores.tolist() == [1.0, 2.0]

    def test_topic_probability_increases_with_c(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores, topic = random_case(rng)
            token = min(topic)
            probs = [softmax(constant_shift(scores, topic, c))[token] for c in (-5, -2, 0, 2, 5, 10)]
            assert all(a < b for a, b in zip(probs, probs[1:]))


class TestFactorScaling:
    def test_negative_logit_raised_by_small_factor(self):
        out = factor_scaling(np.array([-2.0, -1.0]), {0}, 0.5)
        assert out.tolist() == [-1.0, -1.0]

    def test_unit_factor_is_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            scores, topic = random_case(rng)
            assert np.array_equal(factor_scaling(scores, topic, 1.0), scores)

    def test_positive_logit_raised_by_large_factor(self):
        out = factor_scaling(np.array([2.0, 1.0]), {0}, 2.0)
        assert out.tolist() == [4.0, 1.0]

    def test_sign_law_on_logits(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores, topic = random_case(rng)
            ids = sorted(topic)
            negatives = [i for i in ids if scores[i] < 0]
            positives = [i for i in ids if scores[i] > 0]
            small = factor_scaling(scores, topic, 0.5)
            large = factor_scaling(scores, topic, 2.0)
            for i in negatives:
                assert small[i] > scores[i] > large[i]
            for i in positives:
                assert small[i] < scores[i] < large[i]


class TestThresholdSelection:
    def test_boost_above_threshold(self):
        # softmax([2,1,0])[1] ~= 0.2447 >= 0.2, so index 1 is raised to max + beta
        out = threshold_selection(np.array([2.0, 1.0, 0.0]), {1}, theta=0.2, beta=1.0)
        assert out.tolist() == [2.0, 3.0, 0.0]

    def test_theta_one_is_identity_on_non_degenerate(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            scores, topic = random_case(rng)
            assert np.array_equal(threshold_selection(scores, topic, 1.0, 2.0), scores)

    def test_theta_zero_boosts_every_topic_token(self):
        out = threshold_selection(np.array([2.0, 1.0, 0.0]), {0, 1, 2}, theta=0.0, beta=0.5)
        assert out.tolist() == [2.5, 2.5, 2.5]

    def test_boosted_tokens_beat_all_unboosted(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scores, topic = random_case(rng)
            out = threshold_selection(scores, topic, theta=0.0, beta=0.7)
            boosted = sorted(topic)
            others = [i for i in range(scores.size) if i not in topic]
            if others:
                assert out[boosted].min() > out[others].max()

    def test_beta_zero_ties_previous_max(self):
        scores = np.array([3.0, 0.0, -1.0])
        out = threshold_selection(scores, {1}, theta=0.0, beta=0.0)
        assert out[1] == 3.0

    def test_monotone_in_theta(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            scores, topic = random_case(rng)
            previous: set[int] = set()
            for theta in (0.5, 0.2, 0.05, 0.0):
                out = threshold_selection(scores, topic, theta, beta=1.0)
                boosted = {i for i in topic if out[i] != scores[i]}
                assert previous <= boosted
                previous = boosted

    def test_selection_uses_original_distribution(self):
        # both topic tokens qualify against the ORIGINAL softmax even though
        # boosting the first would change the distribution
        scores = np.array([1.0, 1.0, 1.0, -5.0])
        out = threshold_selection(scores, {0, 1}, theta=0.3, beta=2.0)
        assert out[0] == out[1] == 3.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            threshold_selection(np.zeros(3), {0}, theta=1.5, beta=0.0)
        with pytest.raises(ValueError):
            threshold_selection(np.zeros(3), {0}, theta=0.5, beta=-1.0)
        with pytest.raises(ValueError, match="beta"):
            threshold_selection(np.zeros(3), {0}, theta=0.5, beta=np.inf)


class TestNonFiniteOutput:
    @pytest.mark.parametrize("method, apply", [
        ("constant_shift", lambda x, ids: constant_shift(x, ids, 1e308)),
        ("factor_scaling", lambda x, ids: factor_scaling(x, ids, 1e308)),
        ("factor_scaling", lambda x, ids: factor_scaling(x, ids, -1e308)),
        ("threshold_selection", lambda x, ids: threshold_selection(x, ids, theta=0.0, beta=1e308)),
    ])
    def test_overflowing_topic_logit_names_method(self, method, apply):
        with pytest.raises(ValueError, match=method), pytest.warns(RuntimeWarning, match="overflow"):
            apply(np.array([0.0, 1e308, 5.0]), {1, 2})

    def test_large_finite_result_passes(self):
        out = factor_scaling(np.array([0.0, 2.0]), {1}, 1e307)
        assert out.tolist() == [0.0, 2e307]


class TestNonTopicPreservation:
    def test_all_methods_leave_non_topic_bits_alone(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            scores, topic = random_case(rng)
            others = np.array([i for i in range(scores.size) if i not in topic], dtype=int)
            outputs = [
                constant_shift(scores, topic, rng.uniform(-10, 10)),
                factor_scaling(scores, topic, rng.uniform(-3, 3)),
                threshold_selection(scores, topic, rng.uniform(0, 1), rng.uniform(0, 5)),
            ]
            for out in outputs:
                assert np.array_equal(out[others], scores[others])


class TestReweightConfig:
    def test_defaults_valid(self):
        config = ReweightConfig()
        assert config.method == "none"

    def test_invalid_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            ReweightConfig(method="magic")

    def test_invalid_theta(self):
        with pytest.raises(ValueError, match="theta"):
            ReweightConfig(method="threshold_selection", theta=2.0)

    def test_invalid_beta(self):
        with pytest.raises(ValueError, match="beta"):
            ReweightConfig(method="threshold_selection", beta=-0.5)
        for beta in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="beta"):
                ReweightConfig(method="threshold_selection", beta=beta)

    @pytest.mark.parametrize("field", ["c", "alpha", "theta", "beta"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400],
                             ids=["nan", "inf", "-inf", "10**400"])
    def test_non_finite_strength_is_named(self, field, bad):
        # c=10**400 used to escape as a bare OverflowError
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            ReweightConfig(method="constant_shift", **{field: bad})

    @pytest.mark.parametrize("field", ["c", "alpha", "theta", "beta"])
    @pytest.mark.parametrize("bad", [True, np.True_, "0.5", None, [0.5]], ids=repr)
    def test_mistyped_strength_is_named(self, field, bad):
        with pytest.raises(TypeError, match=rf"^{field} .* is not a real number"):
            ReweightConfig(method="threshold_selection", **{field: bad})

    def test_integer_and_numpy_strengths_are_accepted(self):
        assert ReweightConfig(method="constant_shift", c=5).c == 5
        assert ReweightConfig(method="threshold_selection", theta=np.float64(0.25), beta=np.int64(1)).theta == 0.25

    def test_none_is_identity(self):
        rng = np.random.default_rng(8)
        scores, topic = random_case(rng)
        out = apply_reweight(scores, topic, ReweightConfig(method="none"))
        assert np.array_equal(out, scores)


class TestProcessorChain:
    def test_empty_chain_is_identity(self):
        chain = ProcessorChain()
        scores = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(chain.apply(scores), scores)

    def test_vocabulary_mismatch(self):
        chain = build_chain(ReweightConfig(method="constant_shift", c=1.0), {5})
        with pytest.raises(VocabularyMismatchError):
            chain.apply(np.zeros(3))

    def test_build_chain_none_is_empty(self):
        chain = build_chain(ReweightConfig(method="none"), {0})
        assert chain.config == ReweightConfig() and chain.ids.size == 0
        chain = build_chain(ReweightConfig(method="constant_shift", c=2.0), [3, 1, 3])
        assert chain.ids.tolist() == [1, 3]

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, np.float64(1.0), np.True_], ids=repr)
    def test_non_integer_topic_id_is_named(self, bad):
        # int() would truncate 1.7 and True to token 1 and shift it silently
        config = ReweightConfig(method="constant_shift", c=5.0)
        with pytest.raises(TypeError, match=re.escape(f"topic token id {bad!r}")):
            build_chain(config, [0, bad])
        with pytest.raises(TypeError, match=re.escape(f"topic token id {bad!r}")):
            constant_shift(np.zeros(3), {0, bad}, 5.0)

    def test_python_and_numpy_integer_ids_work(self):
        config = ReweightConfig(method="constant_shift", c=5.0)
        ids = [1, np.int64(2), np.int32(0), np.uint8(2)]
        assert build_chain(config, ids).apply(np.zeros(4)).tolist() == [5.0, 5.0, 5.0, 0.0]
        assert build_chain(config, np.array([3, 1])).apply(np.zeros(4)).tolist() == [0.0, 5.0, 0.0, 5.0]


def _outcome(run):
    """Bytes, dtype and shape of a rewrite, or the type of the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            out = run()
    except Exception as exc:  # compared by type against the reference
        return type(exc)
    return out.dtype.str, out.shape, out.tobytes()


@st.composite
def oracle_cases(draw):
    size = draw(st.integers(1, 64))
    entry = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 2.5]),  # ties
        st.floats(-50.0, 50.0),
        st.sampled_from([1e308, -1e308]),  # the rewrite overflows
    )
    scores = draw(st.lists(entry, min_size=size, max_size=size))
    if draw(st.booleans()) and draw(st.booleans()):
        scores[draw(st.integers(0, size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    ids = draw(st.lists(st.integers(0, size - 1), max_size=12))  # duplicates
    if draw(st.booleans()) and draw(st.booleans()):
        ids.append(draw(st.sampled_from([-2, -1, size, size + 1])))  # negative or out of range
    kind = draw(st.sampled_from(["list", "set", "token_set"]))
    if kind == "set":
        topic = set(ids)
    elif kind == "token_set":
        topic = TopicTokenSet(0, frozenset(ids), {i: f"w{i}" for i in ids})
    else:
        topic = ids
    strength = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([1e308, -1e308, 1e300, 0.0]))
    config = draw(st.sampled_from([
        ReweightConfig(),
        ReweightConfig(method="constant_shift", c=draw(strength)),
        ReweightConfig(method="factor_scaling", alpha=draw(strength)),
        ReweightConfig(
            method="threshold_selection",
            theta=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
            beta=draw(st.one_of(st.floats(0.0, 5.0), st.sampled_from([1e308, 0.0]))),
        ),
    ]))
    return np.array(scores), topic, config


def _entry_points(module, config, topic):
    """The one-vector entry points of ``module`` (reweight or the reference) for ``config`` and ``topic``.

    "function" is the method's own public function, or the identity chain's
    ``apply`` for method "none".
    """
    function = {
        "none": lambda x: module.ProcessorChain().apply(x),
        "constant_shift": lambda x: module.constant_shift(x, topic, config.c),
        "factor_scaling": lambda x: module.factor_scaling(x, topic, config.alpha),
        "threshold_selection": lambda x: module.threshold_selection(x, topic, config.theta, config.beta),
    }[config.method]
    return {"chain.apply": lambda x: module.build_chain(config, topic).apply(x),
            "apply_reweight": lambda x: module.apply_reweight(x, topic, config), "function": function}


@settings(max_examples=400, deadline=None)
@given(oracle_cases())
def test_one_rewrite_matches_reference_reweighting(case):
    """Every one-vector entry point equals the per-method reference bit for bit on a finite vector.

    The reference rejects every non-finite vector; here NaN or +inf raises
    ``NonFiniteLogitsError``, and a vector with -inf is its one-row block's
    rewrite. That equals the reference run with each -inf as the lowest
    double, which has probability 0 too, and put back: every -inf stays a
    mask. Where the reference overflows only at such a stand-in, the mask
    keeps the rewrite from raising.
    """
    scores, topic, config = case
    ours, theirs = _entry_points(reweight, config, topic), _entry_points(reference, config, topic)
    masks = scores == -np.inf
    stand_in = np.where(masks, np.finfo(np.float64).min, scores)
    block = _outcome(lambda: build_chain(config, topic).bind(1, scores.size)(scores[None].copy())[0])
    for name, run in ours.items():
        got = _outcome(lambda: run(scores))
        if np.isfinite(scores).all():
            assert got == _outcome(lambda: theirs[name](scores)), name
        elif not (scores < np.inf).all():
            assert got is NonFiniteLogitsError, name
        else:
            assert got == block, name
            want = _outcome(lambda: theirs[name](stand_in))
            if isinstance(got, type):
                assert want is got, name
            elif not isinstance(want, type):
                assert got[2] == np.where(masks, -np.inf, np.frombuffer(want[2])).tobytes(), name
    if isinstance(topic, list):
        assert _outcome(lambda: build_chain(config, topic[::-1]).apply(scores)) == \
            _outcome(lambda: ours["chain.apply"](scores))


ONE_RULE_CONFIGS = [
    ReweightConfig(),
    ReweightConfig(method="constant_shift", c=-3.0),
    ReweightConfig(method="factor_scaling", alpha=0.0),
    ReweightConfig(method="threshold_selection", theta=0.0, beta=1.0),
]


@pytest.mark.parametrize("entry", ["chain.apply", "apply_reweight", "function"])
@pytest.mark.parametrize("config", ONE_RULE_CONFIGS, ids=lambda c: c.method)
def test_one_vector_entry_points_keep_one_rule(config, entry):
    """-inf is the one-row block's mask; NaN or +inf raises ``NonFiniteLogitsError``; 2-D input raises ValueError.

    Method "none"'s function is the identity chain's ``apply``.
    """
    topic = [0, 1, 3]
    run = _entry_points(reweight, config, topic)[entry]
    x = np.array([1.0, -np.inf, 2.0, -np.inf, 0.5])
    expected = build_chain(config, topic).bind(1, x.size)(x[None].copy())[0]
    given = x.tobytes()
    assert run(x).tobytes() == expected.tobytes() and x.tobytes() == given
    assert run(x.tolist()).tobytes() == expected.tobytes()
    for bad in (np.nan, np.inf):
        faulty = x.copy()
        faulty[4] = bad  # not a topic id
        with pytest.raises(NonFiniteLogitsError, match=r"^logit vector holds NaN or \+inf$"):  # no provider, no row
            run(faulty)
    for shape in ((2, x.size), ()):
        with pytest.raises(ValueError, match="one-dimensional"):
            run(np.zeros(shape))


def test_an_empty_vector_passes_the_identity_chain():
    for chain in (ProcessorChain(), build_chain(ReweightConfig(), [0])):
        out = chain.apply([])
        assert out.dtype == np.float64 and out.shape == (0,)


def test_a_caller_vector_with_nan_names_no_provider():
    with pytest.raises(NonFiniteLogitsError) as error:
        constant_shift([1.0, np.nan], [0], 1.0)
    assert str(error.value) == "logit vector holds NaN or +inf" and error.value.row is None


class TestNonFiniteStrength:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("function, name", [(constant_shift, "c"), (factor_scaling, "alpha")], ids=["c", "alpha"])
    def test_rejected_without_topic_tokens(self, function, name, value):
        # no topic logit is rewritten, yet the strength itself cannot be right
        with pytest.raises(ValueError, match=name):
            function(np.zeros(3), set(), value)


@st.composite
def block_cases(draw):
    """Blocks of 1-5 rows drawn like ``oracle_cases``' vectors, with one chain for all rows."""
    scores, topic, config = draw(oracle_cases())
    rows = [scores] + [np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e308, -1e308, *scores]),
                                              min_size=scores.size, max_size=scores.size)))
                       for _ in range(draw(st.integers(0, 4)))]
    return np.array(rows), topic, config


@settings(max_examples=300, deadline=None)
@given(block_cases())
def test_block_rewrite_matches_one_row_at_a_time(case):
    """Rewriting an (n, V) block in place equals ``chain.apply`` of each row; a block with a failing row fails.

    A block that holds NaN or +inf, which ``apply`` rejects in a row, raises
    the one error naming its first such row, or fails as a row alone does,
    or passes every such row on still holding a NaN or +inf, for the step's
    selection to report.
    """
    block, topic, config = case
    try:
        chain = build_chain(config, topic)
    except (TypeError, ValueError):
        return  # a bad topic id fails when the chain is built, as ``test_one_rewrite_...`` checks
    faulty = ~(block < np.inf).all(axis=1)
    if faulty.any():
        try:
            with np.errstate(all="ignore"):
                out = chain.bind(*block.shape)(block.copy())
        except NonFiniteLogitsError as error:
            assert error.row == int(faulty.argmax())
        except ValueError:
            pass  # a mismatch or an overflow, as a row alone fails
        else:
            assert not (out[faulty] < np.inf).all(axis=1).any()
        return
    expected = [_outcome(lambda: chain.apply(row)) for row in block]
    outcome = _outcome(lambda: chain.bind(*block.shape)(block.copy()))
    failed = {e for e in expected if isinstance(e, type)}
    if failed:
        assert outcome in failed
    else:
        assert outcome == (block.dtype.str, block.shape, b"".join(e[2] for e in expected))


@st.composite
def threshold_blocks(draw):
    """(n, V) blocks with -inf masks, sorted topic ids and a theta that is often exactly one topic token's probability.

    A masked topic token has probability 0, so a theta of 0 is drawn often.
    """
    rows, size = draw(st.integers(1, 4)), draw(st.integers(2, 60))
    values = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, 1.0, 1e3, -1e3, -np.inf]))
    x = np.array(draw(st.lists(st.lists(values, min_size=size, max_size=size), min_size=rows, max_size=rows)))
    x[:, -1] = np.where(x[:, -1] > -np.inf, x[:, -1], 0.0)  # no row is fully masked
    ids = np.array(sorted(draw(st.sets(st.integers(0, size - 1), min_size=1))), dtype=np.intp)
    at = float(softmax(x)[draw(st.integers(0, rows - 1)), draw(st.sampled_from(ids.tolist()))])
    theta = draw(st.sampled_from([at, at, float(np.nextafter(at, 1.0)), float(np.nextafter(at, 0.0))])
                 | st.floats(0.0, 1.0))
    return x, ids, ReweightConfig(method="threshold_selection", theta=theta, beta=draw(st.floats(0.0, 5.0)))


@settings(max_examples=300, deadline=None)
@given(threshold_blocks())
def test_threshold_raise_mask_is_full_softmax_comparison(case):
    """The rewrite raises exactly where ``softmax(x).take(ids, axis=1) >= theta`` (at theta too), but not a mask."""
    x, ids, config = case
    raised = (softmax(x).take(ids, axis=1) >= config.theta) & (x[:, ids] > -np.inf)
    expected = x.copy()
    expected[:, ids] = np.where(raised, x.max(axis=1, keepdims=True) + config.beta, x[:, ids])
    assert ProcessorChain(config, ids).bind(*x.shape)(x.copy()).tobytes() == expected.tobytes()


@pytest.mark.parametrize("config", [
    ReweightConfig(method="constant_shift", c=-3.0),
    ReweightConfig(method="factor_scaling", alpha=-2.0),
    ReweightConfig(method="factor_scaling", alpha=0.0),
    ReweightConfig(method="factor_scaling", alpha=0.5),
    ReweightConfig(method="threshold_selection", theta=0.0, beta=1.0),
    ReweightConfig(method="threshold_selection", theta=0.3, beta=1.0),
], ids=["shift", "scale-2", "scale0", "scale0.5", "threshold0", "threshold0.3"])
@pytest.mark.parametrize("entry", ["bind", "chain.apply", "function"])
def test_minus_inf_stays_a_mask_under_every_method(config, entry):
    """A -inf entry stays -inf, even where the method would move it (alpha <= 0, theta = 0); no other becomes one.

    Every other entry is rewritten as if the mask were a finite score of
    probability 0 (-1e300), which the rewrite does not see as a mask. The
    rows go through one bound block rewrite, or one at a time through
    ``chain.apply`` or the method's public function.
    """
    x = np.array([[0.5, -np.inf, 2.0, -np.inf, 1.0], [-np.inf, 3.0, -np.inf, 0.0, -np.inf], [-np.inf] * 5])
    ids = np.array([1, 2, 3, 4])
    one = _entry_points(reweight, config, ids).get(entry)

    def rewrite(block):
        if entry == "bind":
            return ProcessorChain(config, ids).bind(*block.shape)(block.copy())
        return np.array([one(row) for row in block])

    out = rewrite(x)  # no numpy warning either: the RuntimeWarning filter fails it
    assert np.array_equal(out == -np.inf, x == -np.inf)
    unlikely = rewrite(np.where(x > -np.inf, x, -1e300))
    assert out[x > -np.inf].tobytes() == unlikely[x > -np.inf].tobytes()


BOUND_CONFIGS = [
    ReweightConfig(),
    ReweightConfig(method="constant_shift", c=5.0),
    ReweightConfig(method="factor_scaling", alpha=0.5),
    ReweightConfig(method="threshold_selection", theta=1e-4, beta=1.0),
]
NUM_BEAMS = 4  # a decode binds its chain for up to GenerationConfig().num_beams rows


def _bound_case(size, config):
    """A (NUM_BEAMS, size) block of N(0, 3) logits with a few exact ties, and a topic of size // 10 ids."""
    rng = np.random.default_rng(size)
    block = rng.normal(0.0, 3.0, (NUM_BEAMS, size))
    block[:, : size // 20] = 1.0
    ids = sorted(rng.choice(size, size // 10, replace=False).tolist())
    steps = () if config.method == "none" else ((config, ids),)
    return block, ids, reference.ProcessorChain(steps=steps)


def _raised(run):
    """The type and message of the exception ``run`` raises."""
    with pytest.raises(ValueError) as info:
        with np.errstate(all="ignore"):
            run()
    return type(info.value), str(info.value)


def _methods(configs):
    return pytest.mark.parametrize("config", configs, ids=lambda c: c.method)


@pytest.mark.parametrize("size", [226, 5_000])
class TestBoundChain:
    """One ``bind`` per decode, then blocks of 1 to num_beams rows, as ``decoding._decode`` steps them.

    Method "none" reads no ids, like the reference's empty chain; its rewrite
    checks only the block's shape.
    """

    @_methods(BOUND_CONFIGS)
    def test_rewrites_equal_the_reference_bit_for_bit(self, size, config):
        block, ids, expected = _bound_case(size, config)
        chain = build_chain(config, ids)
        rewrite = chain.bind(NUM_BEAMS, size)
        for rows in [*range(1, NUM_BEAMS + 1), 2, 1]:
            want = np.array([expected.apply(row) for row in block[:rows]])
            assert rewrite(block[:rows].copy()).tobytes() == want.tobytes()
            assert chain.bind(rows, size)(block[:rows].copy()).tobytes() == want.tobytes()

    @_methods(BOUND_CONFIGS)
    def test_blocks_that_do_not_fit_the_binding_are_rejected_unwritten(self, size, config):
        block, ids, _ = _bound_case(size, config)
        rewrite = build_chain(config, ids).bind(NUM_BEAMS, size)
        wide = np.vstack([block, block[:1]])
        with pytest.raises(ValueError, match=f"a block of {NUM_BEAMS + 1} rows"):
            rewrite(wide)
        for rows in range(1, NUM_BEAMS + 1):
            for narrow in (block[:rows, :-1].copy(), np.hstack([block[:rows], block[:rows, :1]])):
                with pytest.raises(VocabularyMismatchError, match=f"logit rows have {narrow.shape[1]} entries"):
                    rewrite(narrow)
        assert wide.tobytes() == np.vstack([block, block[:1]]).tobytes()

    @_methods(BOUND_CONFIGS[1:])
    def test_out_of_range_ids_raise_as_the_reference_does(self, size, config):
        block, ids, _ = _bound_case(size, config)
        for bad in (-1, size, size + 7):
            rewrite = build_chain(config, [*ids, bad]).bind(NUM_BEAMS, size)  # binding raises nothing
            expected = reference.ProcessorChain(steps=((config, [*ids, bad]),))
            for rows in range(1, NUM_BEAMS + 1):
                assert _raised(lambda: rewrite(block[:rows].copy())) == _raised(lambda: expected.apply(block[0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @_methods(BOUND_CONFIGS[1:])
    def test_nan_or_inf_at_a_topic_id_is_the_one_error(self, size, config, bad):
        block, ids, _ = _bound_case(size, config)
        rewrite = build_chain(config, ids).bind(NUM_BEAMS, size)
        mismatched = build_chain(config, [*ids, size]).bind(NUM_BEAMS, size)
        for rows in range(1, NUM_BEAMS + 1):
            faulty = block[:rows].copy()
            faulty[rows - 1, ids[rows - 1]] = bad
            assert _raised(lambda: rewrite(faulty.copy())) == \
                (NonFiniteLogitsError, f"provider logits hold NaN or +inf at row {rows - 1}")
            # the rewrite reads no entry before its shape checks, so a mismatch is reported first
            with pytest.raises(VocabularyMismatchError):
                mismatched(faulty.copy())

    @_methods(BOUND_CONFIGS[1:])
    def test_minus_inf_at_a_topic_id_stays_a_mask(self, size, config):
        block, ids, expected = _bound_case(size, config)
        rewrite = build_chain(config, ids).bind(NUM_BEAMS, size)
        for rows in range(1, NUM_BEAMS + 1):
            masked = block[:rows].copy()
            masked[rows - 1, ids[rows - 1]] = -np.inf
            # -1e300 has probability 0 too, so the reference rewrites every other entry to the same bits
            unlikely = np.where(masked > -np.inf, masked, -1e300)
            want = np.array([expected.apply(row) for row in unlikely])
            want[rows - 1, ids[rows - 1]] = -np.inf
            assert rewrite(masked).tobytes() == want.tobytes()

    @_methods(BOUND_CONFIGS[1:3])
    def test_overflowing_rewrite_raises_as_the_reference_does(self, size, config):
        block, ids, _ = _bound_case(size, config)
        block[:, ids[0]] = 1e308
        strong = replace(config, c=1.7e308, alpha=1e10)
        rewrite = build_chain(strong, ids).bind(NUM_BEAMS, size)
        expected = reference.ProcessorChain(steps=((strong, ids),))
        for rows in range(1, NUM_BEAMS + 1):
            assert _raised(lambda: rewrite(block[:rows].copy())) == _raised(lambda: expected.apply(block[0]))

    @_methods(BOUND_CONFIGS)
    def test_finite_block_whose_sum_overflows_is_accepted(self, size, config):
        block, ids, expected = _bound_case(size, config)
        block[:, ::2] = 1e308
        block[:, 1::4] = -1e308
        rewrite = build_chain(config, ids).bind(NUM_BEAMS, size)
        for rows in range(1, NUM_BEAMS + 1):
            with np.errstate(all="ignore"):  # numpy reports the overflowing sums; both sides stay finite
                assert not np.isfinite(block[:rows].sum()) and np.isfinite(block).all()
                want = np.array([expected.apply(row) for row in block[:rows]])
                assert rewrite(block[:rows].copy()).tobytes() == want.tobytes()
