import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topicsteer.decoding import truncate_top_k_top_p
from topicsteer.models import (
    NonFiniteLogitsError,
    ToyMarkovModel,
    ToyModelFormatError,
    Vocabulary,
    as_logit_vector,
    as_real,
    load_toy_model,
    log_softmax,
    save_toy_model,
    softmax,
)

from topicsteer.reweight import ProcessorChain

import reference_models
from conftest import make_markov, make_vocab, random_markov


class TestVocabulary:
    def test_from_tokens(self):
        vocab = Vocabulary.from_tokens(["<s>", "</s>", "a"], bos="<s>", eos="</s>")
        assert vocab.size == 3
        assert vocab.bos_id == 0 and vocab.eos_id == 1
        assert vocab.lookup("a") == 2
        assert vocab.lookup("missing") is None

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Vocabulary(tokens=("<s>", "</s>", "a", "a"), bos_id=0, eos_id=1)

    @pytest.mark.parametrize("tokens, bos_id, eos_id, message", [
        ((), 0, 1, "vocabulary must contain at least one token"),
        (("x", ""), 0, 1, "token strings must be non-empty strings"),
        (("x", 7), 0, 1, "token strings must be non-empty strings"),
        (("x", ["y"]), 0, 1, "token strings must be non-empty strings"),
        (("x", "x", ""), 0, 1, "token strings must be non-empty strings"),
        (("x", "y"), -1, 1, "bos id -1 out of range for size 2"),
        (("x", "y"), 0, 2, "eos id 2 out of range for size 2"),
    ], ids=["no tokens", "empty token", "number token", "list token", "empty and duplicate token",
            "bos below range", "eos above range"])
    def test_malformed_vocabulary_rejected(self, tokens, bos_id, eos_id, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Vocabulary(tokens=tokens, bos_id=bos_id, eos_id=eos_id)

    def test_str_subclass_tokens_are_strings(self):
        class Token(str):
            pass

        vocab = Vocabulary(tokens=(Token("<s>"), "</s>", Token(" court")), bos_id=0, eos_id=1)
        assert vocab.lookup(" court") == 2
        assert vocab.encode_words("court") == [2]

    def test_bos_eos_must_differ(self):
        with pytest.raises(ValueError):
            Vocabulary(tokens=("x", "y"), bos_id=0, eos_id=0)

    @pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("name", ["bos", "eos"])
    def test_special_ids_must_be_integers(self, name, bad):
        """A float or bool id is rejected by ``as_int``, not used to index (1.0) or mask every token (True)."""
        with pytest.raises(TypeError, match=f"^{name} id {bad!r} is not an integer$"):
            Vocabulary(tokens=("x", "y", "z"), **{"bos_id": 0, "eos_id": 0, f"{name}_id": bad})
        vocab = Vocabulary(tokens=("x", "y", "z"), **{"bos_id": 0, "eos_id": 0, f"{name}_id": np.int64(1)})
        assert type(getattr(vocab, f"{name}_id")) is int

    def test_decode_joins_and_strips_specials(self):
        vocab = Vocabulary.from_tokens(["<s>", "</s>", " the", " court", "court"], bos="<s>", eos="</s>")
        assert vocab.decode([0, 2, 3, 1]) == "the court"
        assert vocab.decode([4, 3]) == "court court"

    def test_encode_words_prefers_space_form(self):
        vocab = Vocabulary.from_tokens(["<s>", "</s>", " the", " court", "court"], bos="<s>", eos="</s>")
        assert vocab.encode_words("the court unknown") == [2, 3]

    def test_validate_ids(self):
        vocab = make_vocab(2)
        with pytest.raises(ValueError, match="out of range"):
            vocab.validate_ids([0, 99])

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, False, np.True_, np.float64(2.0), "1"], ids=repr)
    def test_non_integer_id_is_named(self, bad):
        # int() would read 1.9 and True as token 1
        vocab = make_vocab(2)
        with pytest.raises(TypeError, match=re.escape(f"token id {bad!r} is not an integer")):
            vocab.validate_ids([0, bad, 2])
        with pytest.raises(TypeError, match=re.escape(f"token id {bad!r}")):
            vocab.decode([2, bad])

    def test_python_and_numpy_integer_ids_are_valid(self):
        vocab = Vocabulary.from_tokens(["<s>", "</s>", " the", " court"], bos="<s>", eos="</s>")
        ids = [np.int64(2), np.int32(3), np.uint8(2), 3]
        assert vocab.validate_ids(ids) == [2, 3, 2, 3]
        assert all(type(i) is int for i in vocab.validate_ids(ids))
        assert vocab.decode(np.array([0, 2, 3, 1])) == "the court"

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 6), st.one_of(
        st.lists(st.integers(-2, 9), max_size=12),  # Python ints only: the whole-list check, or one out of range
        st.lists(st.one_of(st.integers(-2, 9), st.integers(-2, 9).map(np.int64), st.booleans(), st.just(2**70),
                           st.floats(-2.0, 9.0), st.sampled_from([1.0, np.float64(2.0), np.True_, "1", "", None])),
                 max_size=12),
    ))
    def test_validate_ids_matches_the_one_by_one_reference(self, n_words, ids):
        """The ids, as Python ints, or the same exception type and message as a check of one id at a time."""
        vocab = make_vocab(n_words)

        def outcome(check):
            try:
                checked = check(list(ids))
            except (TypeError, ValueError) as exc:
                return type(exc), str(exc)
            return checked, [type(i) for i in checked]

        assert outcome(vocab.validate_ids) == outcome(lambda given: reference_models.validate_ids(vocab, given))


class TestToyMarkovModel:
    def test_next_logits_is_table_lookup(self):
        vocab = Vocabulary.from_tokens(["a", "b", "c"], bos="a", eos="b")
        table = [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]]
        model = ToyMarkovModel(vocabulary=vocab, table=table)
        assert model.next_logits([0]).tolist() == [0.0, 1.0, 2.0]

    def test_only_last_token_matters(self):
        vocab = Vocabulary.from_tokens(["a", "b", "c"], bos="a", eos="b")
        table = [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]]
        model = ToyMarkovModel(vocabulary=vocab, table=table)
        assert model.next_logits([0, 0]).tolist() == [0.0, 1.0, 2.0]
        assert model.next_logits([2, 1, 0]).tolist() == model.next_logits([0]).tolist()

    def test_invalid_prefix_id(self):
        model = make_markov(make_vocab(1))
        with pytest.raises(ValueError, match="out of range"):
            model.next_logits([99])

    def test_empty_prefix(self):
        model = make_markov(make_vocab(1))
        with pytest.raises(ValueError, match="non-empty"):
            model.next_logits([])
        with pytest.raises(ValueError, match="non-empty"):
            model.start([])

    @pytest.mark.parametrize("bad", [1.9, True, np.True_], ids=repr)
    def test_non_integer_prefix_id_rejected(self, bad):
        model = make_markov(make_vocab(2))
        with pytest.raises(TypeError, match=re.escape(f"token id {bad!r}")):
            model.next_logits([bad])
        with pytest.raises(TypeError, match=re.escape(f"token id {bad!r}")):
            model.start([0, bad, 2])

    def test_incremental_half_matches_next_logits(self):
        model = random_markov(4, n_words=4)
        prefix = [0, 3, 5, 2]
        state = model.start(prefix)
        assert np.array_equal(model.logits_many([state])[0], model.next_logits(prefix))
        for token in (4, 1, 2):
            before = state
            state = model.advance(state, token)
            prefix = prefix + [token]
            assert np.array_equal(model.logits_many([state])[0], model.next_logits(prefix))
            assert np.array_equal(model.logits_many([before])[0], model.next_logits(prefix[:-1]))

    def test_deterministic_and_shaped(self):
        for seed in range(10):
            model = random_markov(seed, n_words=3 + seed % 4)
            rng = np.random.default_rng(seed + 100)
            prefix = [int(rng.integers(model.vocabulary.size)) for _ in range(5)]
            first = model.next_logits(prefix)
            second = model.next_logits(prefix)
            assert first.shape == (model.vocabulary.size,)
            assert np.array_equal(first, second)
            assert np.isfinite(first).all()

    def test_returned_vector_is_a_copy(self):
        model = make_markov(make_vocab(2))
        out = model.next_logits([0])
        out[0] = 1e9
        assert model.next_logits([0])[0] != 1e9

    def test_table_shape_must_match_vocabulary(self):
        with pytest.raises(ValueError, match=re.escape("table shape (4, 3) does not match vocabulary (4, 4)")):
            ToyMarkovModel(vocabulary=make_vocab(2), table=np.zeros((4, 3)))

    def test_non_finite_table_rejected(self):
        vocab = make_vocab(1)
        table = np.zeros((vocab.size, vocab.size))
        table[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ToyMarkovModel(vocabulary=vocab, table=table)


class TestToyModelFile:
    def test_round_trip(self, tmp_path):
        for seed in range(5):
            model = random_markov(seed)
            path = tmp_path / f"m{seed}.json"
            save_toy_model(model, path)
            loaded = load_toy_model(path)
            assert loaded.vocabulary == model.vocabulary
            assert np.array_equal(loaded.table, model.table)

    def test_parse_fixture(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "tokens": ["a", "b", "c"],
            "bos": "a",
            "eos": "b",
            "table": {"a": [0, 1, 2], "b": [3, 4, 5], "c": [6, 7, 8]},
        }))
        model = load_toy_model(path)
        assert model.vocabulary.size == 3
        assert model.table.shape == (3, 3)

    def test_missing_row(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "tokens": ["a", "b", "c"],
            "bos": "a",
            "eos": "b",
            "table": {"a": [0, 1, 2], "b": [3, 4, 5]},
        }))
        with pytest.raises(ToyModelFormatError, match="missing table row for token 'c'"):
            load_toy_model(path)

    def test_non_finite_score(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "tokens": ["a", "b"],
            "bos": "a",
            "eos": "b",
            "table": {"a": [0, None], "b": [3, 4]},
        }))
        with pytest.raises(ToyModelFormatError, match="non-finite or non-numeric"):
            load_toy_model(path)

    def test_int_beyond_float_range_names_entry(self, tmp_path):
        # used to escape as a bare OverflowError naming neither file nor entry
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"tokens": ["a", "b"], "bos": "a", "eos": "b",
                                    "table": {"a": [0, 1], "b": [3, 10**400]}}))
        with pytest.raises(ToyModelFormatError, match=r"m\.json: non-finite or non-numeric score for 'b'\[1\]"):
            load_toy_model(path)

    def test_unknown_row(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "tokens": ["a", "b"],
            "bos": "a",
            "eos": "b",
            "table": {"a": [0, 1], "b": [3, 4], "zz": [5, 6]},
        }))
        with pytest.raises(ToyModelFormatError, match="unknown tokens"):
            load_toy_model(path)

    @pytest.mark.parametrize("payload, message", [
        (["a", "b"], "top level must be an object"),
        ({"tokens": ["a", "b"], "bos": "a", "table": {}}, "missing key 'eos'"),
        ({"tokens": ["a", "b"], "bos": "a", "eos": "b", "table": [[0, 1], [3, 4]]},
         "'table' must be an object keyed by token string"),
        ({"tokens": ["a", "b", ""], "bos": "a", "eos": "b", "table": {}}, "token strings must be non-empty strings"),
    ], ids=["array", "no eos", "table array", "empty token"])
    def test_malformed_file_names_the_file(self, tmp_path, payload, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ToyModelFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_toy_model(path)

    def test_wrong_row_length(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "tokens": ["a", "b"],
            "bos": "a",
            "eos": "b",
            "table": {"a": [0, 1, 2], "b": [3, 4]},
        }))
        with pytest.raises(ToyModelFormatError, match="must list 2 numbers"):
            load_toy_model(path)


_GOOD_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
)
_BAD_SCORES = st.sampled_from([True, False, "1.0", None, float("nan"), float("inf"), -float("inf"), [1.0], {}, 10**400])


@st.composite
def _toy_model_payloads(draw) -> dict:
    """A toy-model JSON object whose rows may be short, long, missing, unknown or hold bad entries."""
    size = draw(st.integers(2, 5))
    tokens = [f"t{i}" for i in range(size)]
    rows = {}
    for token in tokens:
        if draw(st.integers(0, 19)) == 0:
            continue  # missing row
        length = size if draw(st.integers(0, 9)) else draw(st.integers(0, size + 1))
        scores = _GOOD_SCORES if draw(st.booleans()) else st.one_of(_GOOD_SCORES, _BAD_SCORES)
        rows[token] = draw(st.lists(scores, min_size=length, max_size=length))
    if draw(st.integers(0, 19)) == 0:
        rows["zz"] = [0.0] * size
    return {"tokens": tokens, "bos": "t0", "eos": "t1", "table": rows}


def _load_outcome(load, path: Path):
    """The loaded table's bytes, or the exception's type and message."""
    try:
        return load(path).table.tobytes()
    except Exception as exc:  # the two loaders must fail alike, whatever the type
        return type(exc), str(exc)


def _beyond_float_as_nan(payload: dict) -> dict:
    """The payload with each table entry beyond float range replaced by NaN."""
    def entry(v):
        if type(v) is int:
            try:
                float(v)
            except OverflowError:
                return math.nan
        return v
    table = {token: [entry(v) for v in row] if isinstance(row, list) else row
             for token, row in payload["table"].items()}
    return {**payload, "table": table}


def _reference_outcome(payload: dict, path: Path):
    """The reference loader's outcome, except that an int beyond float range is a bad entry like NaN.

    The reference lets such an int escape as a bare OverflowError from its
    finiteness test; the package reports it as the first bad entry.
    """
    outcome = _load_outcome(reference_models.load_toy_model, path)
    if isinstance(outcome, tuple) and outcome[0] is OverflowError:
        path.write_text(json.dumps(_beyond_float_as_nan(payload)), encoding="utf-8")
        outcome = _load_outcome(reference_models.load_toy_model, path)
    return outcome


@settings(max_examples=300, deadline=None)
@given(payload=_toy_model_payloads())
# an int beyond float range after a NaN: the NaN is reported
@example(payload={"tokens": ["t0", "t1"], "bos": "t0", "eos": "t1",
                  "table": {"t0": [float("nan"), 10**400], "t1": [0, 1.5]}})
# a lone int beyond float range is reported like NaN, not as an OverflowError
@example(payload={"tokens": ["t0", "t1"], "bos": "t0", "eos": "t1",
                  "table": {"t0": [0, 1], "t1": [2.5, 10**400]}})
def test_loader_matches_per_entry_reference(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        outcome = _load_outcome(load_toy_model, path)
        assert outcome == _reference_outcome(payload, path)


class TestAsReal:
    @pytest.mark.parametrize("value", [0.5, -3, np.float32(0.5), np.int64(7)], ids=repr)
    def test_real_numbers_become_equal_floats(self, value):
        out = as_real(value, "x")
        assert type(out) is float and out == value

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, -(10**400)],
                             ids=["nan", "inf", "-inf", "10**400", "-10**400"])
    def test_non_finite_is_a_value_error_naming_it(self, bad):
        with pytest.raises(ValueError, match=r"^x must be finite"):
            as_real(bad, "x")

    @pytest.mark.parametrize("bad", [True, np.True_, "0.5", None, [0.5], {}], ids=repr)
    def test_non_number_is_a_type_error_naming_it(self, bad):
        with pytest.raises(TypeError, match=r"^x .* is not a real number"):
            as_real(bad, "x")


class TestAsLogitVector:
    def test_returns_a_float64_copy(self):
        given = np.array([1, -3, 2])
        out = as_logit_vector(given)
        assert out.dtype == np.float64 and out.tolist() == [1.0, -3.0, 2.0]
        out[0] = 9.0
        assert given[0] == 1
        assert as_logit_vector([-np.inf, 0.5]).tolist() == [-np.inf, 0.5]  # a mask passes
        assert as_logit_vector([]).shape == (0,)

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.float64(1.0), [np.nan, 1.0], [1.0, np.inf]],
                             ids=["block", "scalar", "nan", "+inf"])
    def test_every_one_vector_entry_point_shares_its_rule(self, bad):
        with pytest.raises(ValueError) as expected:
            as_logit_vector(bad)
        for entry in (ProcessorChain().apply, lambda x: truncate_top_k_top_p(x, 5, 0.9)):
            with pytest.raises(type(expected.value)) as error:
                entry(bad)
            assert str(error.value) == str(expected.value)
            assert isinstance(error.value, NonFiniteLogitsError) == isinstance(expected.value, NonFiniteLogitsError)


class TestSoftmax:
    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(0, 3, rng.integers(2, 30))
            p = softmax(x)
            assert p.shape == x.shape
            assert abs(p.sum() - 1.0) < 1e-12
            assert (p > 0).all()

    def test_masked_entries_are_exactly_zero(self):
        p = softmax(np.array([1.0, -np.inf, 0.0]))
        assert p[1] == 0.0
        assert abs(p.sum() - 1.0) < 1e-12

    def test_log_softmax_consistent(self):
        x = np.array([2.0, -1.0, 0.5, -np.inf])
        lp = log_softmax(x)
        assert lp[3] == -np.inf
        assert np.allclose(np.exp(lp[:3]), softmax(x)[:3])

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([-np.inf, -np.inf]))
