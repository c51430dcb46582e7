import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_scoring

from topicsteer.decoding import GenerationResult
from topicsteer.models import Vocabulary
from topicsteer.scoring import (
    REPORT_COLUMNS,
    _lcs_length,
    dict_topic_score,
    lemma_topic_score,
    report_row,
    rouge_l_f1,
    score_summary,
    token_topic_score,
    tokenize_words,
)
from topicsteer.topics import TopicModel, TopicTokenSet, topic_token_set


def test_tokenize_words_strips_punctuation_and_case():
    assert tokenize_words("The court's ruling, finally!") == ["the", "court", "s", "ruling", "finally"]
    assert tokenize_words("") == []


class TestLemmaScore:
    def make_model(self):
        return TopicModel(topics={0: (("court", 0.6), ("judge", 0.4))})

    def test_partial_coverage(self):
        # "courts" stems to "court", which covers 0.6 of the 1.0 total weight
        assert lemma_topic_score("the courts ruled", 0, self.make_model()) == pytest.approx(0.6)

    def test_full_coverage(self):
        assert lemma_topic_score("judges in court", 0, self.make_model()) == pytest.approx(1.0)

    def test_no_overlap(self):
        assert lemma_topic_score("rockets in orbit", 0, self.make_model()) == 0.0

    def test_empty_summary(self):
        assert lemma_topic_score("", 0, self.make_model()) == 0.0

    def test_presence_is_binary_by_default(self):
        once = lemma_topic_score("court", 0, self.make_model())
        thrice = lemma_topic_score("court court court", 0, self.make_model())
        assert once == thrice == pytest.approx(0.6)

    def test_scores_stay_in_range(self):
        model = self.make_model()
        rng = np.random.default_rng(0)
        pool = ["court", "courts", "judge", "rocket", "the", "running"]
        for _ in range(100):
            text = " ".join(rng.choice(pool, size=rng.integers(0, 12)))
            assert 0.0 <= lemma_topic_score(text, 0, model) <= 1.0

    def test_unknown_topic(self):
        with pytest.raises(KeyError):
            lemma_topic_score("court", 9, self.make_model())


class TestTokenScore:
    def test_half(self):
        assert token_topic_score([5, 7, 5, 9], {5}) == pytest.approx(0.5)

    def test_full(self):
        assert token_topic_score([1, 2, 3], {1, 2, 3, 4}) == 1.0

    def test_empty_topic_set(self):
        assert token_topic_score([1, 2], set()) == 0.0

    def test_empty_sequence(self):
        assert token_topic_score([], {1}) == 0.0

    def test_accepts_topic_token_set(self):
        tset = TopicTokenSet(topic_id=0, token_ids=frozenset({5}), provenance={5: "w"})
        assert token_topic_score([5, 6], tset) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            ids = [int(t) for t in rng.integers(0, 30, rng.integers(0, 13))]
            topic = {int(t) for t in rng.integers(0, 30, rng.integers(0, 8))}
            brute = 0.0 if not ids else sum(1 for t in ids if t in topic) / len(ids)
            assert token_topic_score(ids, topic) == brute

    def test_concatenation_lies_between_parts(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = [int(t) for t in rng.integers(0, 10, rng.integers(1, 10))]
            b = [int(t) for t in rng.integers(0, 10, rng.integers(1, 10))]
            topic = {int(t) for t in rng.integers(0, 10, 4)}
            sa, sb = token_topic_score(a, topic), token_topic_score(b, topic)
            joint = token_topic_score(a + b, topic)
            assert min(sa, sb) - 1e-12 <= joint <= max(sa, sb) + 1e-12

    def test_appending_topic_token_never_decreases(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            ids = [int(t) for t in rng.integers(0, 10, rng.integers(1, 10))]
            topic = {int(t) for t in rng.integers(0, 10, 4)}
            if not topic:
                continue
            extended = ids + [next(iter(topic))]
            before = sum(1 for t in ids if t in topic)
            after = sum(1 for t in extended if t in topic)
            assert after >= before


class TestDictScore:
    def test_two_topic_word(self, court_topics):
        # "case" carries weight 0.2 in topic 0 and 0.1 in topic 1
        assert dict_topic_score("case", 0, court_topics) == pytest.approx(0.2 / 0.3)
        assert dict_topic_score("case", 1, court_topics) == pytest.approx(0.1 / 0.3)

    def test_three_quarters_split(self):
        # weight 0.6 in one topic, 0.2 in the other: posterior 0.6/0.8 = 0.75
        model = TopicModel(topics={0: (("court", 0.6),), 1: (("court", 0.2), ("rocket", 0.5))})
        assert dict_topic_score("court", 0, model) == pytest.approx(0.75)

    def test_single_topic_word(self, court_topics):
        assert dict_topic_score("court", 0, court_topics) == 1.0
        assert dict_topic_score("court", 1, court_topics) == 0.0

    def test_out_of_dictionary_only_warns(self, court_topics, caplog):
        with caplog.at_level(logging.WARNING):
            assert dict_topic_score("zebra stripes", 0, court_topics) == 0.0
        assert "no summary word" in caplog.text

    def test_mean_over_occurrences(self, court_topics):
        # two occurrences of "court" (1.0) and one of "case" (2/3)
        expected = (1.0 + 1.0 + 2.0 / 3.0) / 3.0
        assert dict_topic_score("court case court", 0, court_topics) == pytest.approx(expected)

    def test_unknown_topic(self, court_topics):
        with pytest.raises(KeyError):
            dict_topic_score("court", 42, court_topics)


_DICT_WORDS = ("court", "case", "judge", "orbit", "rocket", "moot")
_WEIGHTS = st.one_of(
    st.just(0.0),
    st.integers(1, 10**6).map(lambda n: n / 997),  # inexact sums, so the summation order shows
    st.floats(min_value=0.0, max_value=1e308, allow_infinity=False),
)


@st.composite
def _topic_models(draw) -> TopicModel:
    """Two to six topics over a small shared word pool, with zero weights and zero-total words."""
    tids = draw(st.lists(st.integers(0, 9), min_size=2, max_size=6, unique=True))
    topics = {}
    for tid in tids:
        words = draw(st.lists(st.sampled_from(_DICT_WORDS), min_size=1, max_size=len(_DICT_WORDS), unique=True))
        topics[tid] = tuple((word, draw(_WEIGHTS)) for word in words)
    return TopicModel(topics=topics)


def _outcome(call, *logger_names: str):
    """(what ``call()`` returns, or the exception's type and args; the warnings logged meanwhile)."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = records.append
    loggers = [logging.getLogger(name) for name in logger_names]
    for logger in loggers:
        logger.addHandler(handler)
    try:
        outcome = call()
    except (KeyError, ValueError) as exc:
        outcome = (type(exc), exc.args)
    finally:
        for logger in loggers:
            logger.removeHandler(handler)
    return outcome, [(r.levelno, r.getMessage()) for r in records]


def _dict_outcome(score, summary: str, topic_id: int, model: TopicModel, logger_name: str):
    """(float.hex of the score or the exception's type and args, warning messages logged)."""
    return _outcome(lambda: float.hex(score(summary, topic_id, model)), logger_name)


@settings(max_examples=300, deadline=None)
@given(
    model=_topic_models(),
    summary_words=st.lists(st.sampled_from(_DICT_WORDS + ("Court", "zebra", "stripes", "case,", "9")), max_size=8),
    topic_index=st.integers(0, 6),
)
# (0.3 + 0.2) + 0.1 is 0.6, (0.1 + 0.2) + 0.3 is not: the total sums in topic order
@example(model=TopicModel(topics={0: (("case", 0.3),), 1: (("case", 0.2),), 2: (("case", 0.1),)}),
         summary_words=["case"], topic_index=0)
def test_dict_score_matches_per_call_weight_reference(model, summary_words, topic_index):
    candidates = sorted(model.topics) + [42]  # 42 is no topic: both must raise the same KeyError
    topic_id = candidates[topic_index % len(candidates)]
    summary = " ".join(summary_words)
    expected = _dict_outcome(reference_scoring.dict_topic_score, summary, topic_id, model, "reference_scoring")
    got = _dict_outcome(dict_topic_score, summary, topic_id, model, "topicsteer.scoring")
    assert got == expected


@st.composite
def _stem_pairs(draw) -> tuple[list[str], list[str]]:
    """Two stem sequences over one alphabet: tiny ones repeat stems, large ones rarely match.

    Lengths run from empty to past 64, so the bit masks are wider than one 64-bit word.
    """
    alphabet = draw(st.sampled_from((1, 2, 3, 8, 40, 500)))
    stems = st.integers(0, alphabet - 1).map(lambda i: f"s{i}")
    sides = []
    for _ in range(2):
        size = draw(st.one_of(st.integers(0, 10), st.integers(60, 150)))
        sides.append(draw(st.lists(stems, min_size=size, max_size=size)))
    return sides[0], sides[1]


@settings(max_examples=300, deadline=None)
@given(_stem_pairs())
@example((["a", "b", "a"] * 40, []))
@example(([], ["a"] * 70))
@example(([f"s{i % 7}" for i in range(120)], [f"s{(3 * i) % 11}" for i in range(70)]))
def test_bit_parallel_lcs_matches_quadratic_table(pair):
    a, b = pair
    assert _lcs_length(a, b) == reference_scoring._lcs_length(a, b)
    assert _lcs_length(b, a) == reference_scoring._lcs_length(a, b)


class TestRougeL:
    def test_two_thirds(self):
        assert rouge_l_f1("the cat sat", "the cat ran") == pytest.approx(2 / 3)

    def test_identical(self):
        assert rouge_l_f1("a full summary here", "a full summary here") == 1.0

    def test_disjoint(self):
        assert rouge_l_f1("alpha beta", "gamma delta") == 0.0

    def test_empty(self):
        assert rouge_l_f1("", "reference") == 0.0
        assert rouge_l_f1("candidate", "") == 0.0

    def test_stemming_aligns_inflections(self):
        assert rouge_l_f1("the courts ruled", "the court rules") == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        pool = ["a", "b", "c", "d", "the", "court"]
        for _ in range(100):
            x = " ".join(rng.choice(pool, size=rng.integers(0, 9)))
            y = " ".join(rng.choice(pool, size=rng.integers(0, 9)))
            assert rouge_l_f1(x, y) == pytest.approx(rouge_l_f1(y, x))

    def test_matches_quadratic_dp_oracle(self):
        def lcs_oracle(a, b):
            table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
            for i in range(1, len(a) + 1):
                for j in range(1, len(b) + 1):
                    if a[i - 1] == b[j - 1]:
                        table[i][j] = table[i - 1][j - 1] + 1
                    else:
                        table[i][j] = max(table[i - 1][j], table[i][j - 1])
            return table[-1][-1]

        rng = np.random.default_rng(5)
        pool = ["a", "b", "c", "d"]
        for _ in range(100):
            xs = [str(w) for w in rng.choice(pool, size=rng.integers(0, 11))]
            ys = [str(w) for w in rng.choice(pool, size=rng.integers(0, 11))]
            lcs = lcs_oracle(xs, ys)
            if not xs or not ys:
                expected = 0.0
            else:
                p, r = lcs / len(xs), lcs / len(ys)
                expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert rouge_l_f1(" ".join(xs), " ".join(ys)) == expected


class TestScoreSummary:
    def make_parts(self):
        vocab = Vocabulary.from_tokens(
            ["<s>", "</s>", " court", " judge", " rocket", " orbit", " the"],
            bos="<s>", eos="</s>",
        )
        model = TopicModel(topics={0: (("court", 0.6), ("judge", 0.4)),
                                   1: (("rocket", 0.5), ("orbit", 0.5))})
        return vocab, model

    def test_opposition_fixture(self):
        vocab, model = self.make_parts()
        result = GenerationResult(tokens=(2, 3, 2), log_prob=-1.0)
        report = score_summary(
            result, "a1", "steered", steered_tid=0, topics=(0, 1),
            references=("the court", "the rocket"), model=model, vocab=vocab,
        )
        assert report["token_t1"] == 1.0
        assert report["token_t2"] == 0.0
        assert report["lemma_t1"] == 1.0
        assert report["lemma_t2"] == 0.0

    def test_condition_label_verbatim(self):
        vocab, model = self.make_parts()
        result = GenerationResult(tokens=(2,), log_prob=-0.5)
        report = score_summary(
            result, "a1", "baseline", steered_tid=1, topics=(0, 1),
            references=("x court", "x rocket"), model=model, vocab=vocab,
        )
        assert report["condition"] == "baseline"
        assert report["steered_tid"] == 1

    def test_summary_equal_to_reference_scores_one(self):
        vocab, model = self.make_parts()
        result = GenerationResult(tokens=(2, 3), log_prob=-0.5)
        report = score_summary(
            result, "a1", "c", steered_tid=0, topics=(0, 1),
            references=("court judge", "rocket orbit"), model=model, vocab=vocab,
        )
        assert report["rouge_l_f1"] == 1.0

    def test_rouge_uses_steered_reference(self):
        vocab, model = self.make_parts()
        result = GenerationResult(tokens=(4, 5), log_prob=-0.5)  # "rocket orbit"
        toward_t2 = score_summary(
            result, "a1", "c", steered_tid=1, topics=(0, 1),
            references=("court judge", "rocket orbit"), model=model, vocab=vocab,
        )
        toward_t1 = score_summary(
            result, "a1", "c", steered_tid=0, topics=(0, 1),
            references=("court judge", "rocket orbit"), model=model, vocab=vocab,
        )
        assert toward_t2["rouge_l_f1"] == 1.0
        assert toward_t1["rouge_l_f1"] == 0.0

    def test_specials_excluded_from_token_score(self):
        vocab, model = self.make_parts()
        result = GenerationResult(tokens=(2, vocab.eos_id), log_prob=-0.5)
        report = score_summary(
            result, "a1", "c", steered_tid=0, topics=(0, 1),
            references=("court", "rocket"), model=model, vocab=vocab,
        )
        assert report["token_t1"] == 1.0

    def test_all_scores_in_range(self):
        vocab, model = self.make_parts()
        rng = np.random.default_rng(6)
        content = [2, 3, 4, 5, 6]
        for _ in range(50):
            tokens = tuple(int(t) for t in rng.choice(content, size=rng.integers(1, 8)))
            report = score_summary(
                GenerationResult(tokens=tokens, log_prob=-1.0), "a", "c",
                steered_tid=0, topics=(0, 1), references=("court", "rocket"),
                model=model, vocab=vocab,
            )
            for suffix in ("t1", "t2"):
                assert 0.0 <= report["lemma_" + suffix] <= 1.0
                assert 0.0 <= report["token_" + suffix] <= 1.0
                assert 0.0 <= report["dict_" + suffix] <= 1.0
            assert 0.0 <= report["rouge_l_f1"] <= 1.0

    def test_report_validation(self):
        vocab, model = self.make_parts()
        result = GenerationResult(tokens=(2,), log_prob=-0.5)
        with pytest.raises(ValueError, match="distinct"):
            score_summary(result, "a", "c", steered_tid=0, topics=(0, 0), references=("court", "rocket"),
                          model=model, vocab=vocab)
        with pytest.raises(ValueError, match="non-empty"):
            score_summary(result, "a", "", steered_tid=0, topics=(0, 1), references=("court", "rocket"),
                          model=model, vocab=vocab)
        with pytest.raises(ValueError, match="^steered_tid must be tid1 or tid2$"):
            score_summary(result, "a", "c", steered_tid=2, topics=(0, 1), references=("court", "rocket"),
                          model=model, vocab=vocab)

    def test_report_row_columns(self):
        vocab, model = self.make_parts()
        report = score_summary(
            GenerationResult(tokens=(2,), log_prob=-0.5), "a9", "shift", steered_tid=0,
            topics=(0, 1), references=("court", "rocket"), model=model, vocab=vocab,
        )
        row = report_row(report)
        assert row["article_id"] == "a9"
        assert row["token_t1"] == "1"
        assert row["token_t2"] == "0"
        assert set(row) == {
            "article_id", "condition", "steered_tid", "lemma_t1", "token_t1",
            "dict_t1", "lemma_t2", "token_t2", "dict_t2", "rouge_l_f1",
        }
        assert list(row) == list(REPORT_COLUMNS) == list(report)


_SUMMARY_WORDS = ("court", "courts", "judge", "judging", "case", "cases", "orbit", "orbiting", "rocket", "the", "moot")
_SUMMARY_TOKENS = ("<s>", "</s>", *(" " + w for w in _SUMMARY_WORDS), " Court", ",", "s", " 9")


def _score_outcome(score, args: tuple, kwargs: dict, *logger_names: str):
    """(the scores with floats as ``float.hex``, or the exception's type and args; the warnings logged)."""
    return _outcome(lambda: {k: float.hex(v) if isinstance(v, float) else v
                             for k, v in score(*args, **kwargs).items()}, *logger_names)


@settings(max_examples=300, deadline=None)
@given(
    model=_topic_models(),
    tokens=st.lists(st.integers(0, len(_SUMMARY_TOKENS) - 1), max_size=30),
    references=st.tuples(*[st.lists(st.sampled_from(_SUMMARY_WORDS + ("Courts,", "zebra")), max_size=12)] * 2),
    picks=st.tuples(st.integers(0, 6), st.integers(0, 6), st.booleans()),
    top_n=st.integers(1, 7),
    prebuilt=st.booleans(),
)
# (0.3 + 0.2) + 0.1 is 0.6, (0.1 + 0.2) + 0.3 is not: the lemma score sums in topic order
@example(model=TopicModel(topics={0: (("judge", 0.3), ("court", 0.2), ("case", 0.1)), 1: (("orbit", 1.0),)}),
         tokens=[_SUMMARY_TOKENS.index(t) for t in (" case", " court", " judging", " orbit")],
         references=(["the", "court"], ["orbit"]), picks=(0, 1, True), top_n=3, prebuilt=False)
def test_score_summary_matches_per_metric_composition(model, tokens, references, picks, top_n, prebuilt):
    """The once-per-text path gives the old composition's bits, errors and warnings (a no-word summary warns twice)."""
    vocab = Vocabulary.from_tokens(list(_SUMMARY_TOKENS), bos="<s>", eos="</s>")
    candidates = sorted(model.topics) + [42]  # 42 is no topic: both must fail the same way
    tid1, tid2 = (candidates[i % len(candidates)] for i in picks[:2])
    steered = tid1 if picks[2] else tid2
    token_sets = {t: topic_token_set(t, model, vocab, top_n) for t in (tid1, tid2) if t in model.topics}
    args = (GenerationResult(tokens=tuple(tokens), log_prob=-1.0), "a1", "c", steered, (tid1, tid2),
            tuple(" ".join(words) for words in references), model, vocab)
    kwargs = dict(top_n=top_n, token_sets=token_sets if prebuilt else None)
    expected = _score_outcome(reference_scoring.score_summary, args, kwargs, "reference_scoring", "topicsteer.topics")
    got = _score_outcome(score_summary, args, kwargs, "topicsteer.scoring", "topicsteer.topics")
    assert got == expected


def test_public_scorers_match_reference_copies():
    model = TopicModel(topics={0: (("court", 0.6), ("judge", 0.4), ("case", 0.2)),
                               1: (("rocket", 0.5), ("orbit", 0.3), ("case", 0.1))})
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = (" ".join(rng.choice(_SUMMARY_WORDS, size=rng.integers(0, 15))) for _ in range(2))
        assert float.hex(rouge_l_f1(x, y)) == float.hex(reference_scoring.rouge_l_f1(x, y))
        for tid in (0, 1):
            for top_n in (1, 2, 3):
                got = lemma_topic_score(x, tid, model, top_n)
                assert float.hex(got) == float.hex(reference_scoring.lemma_topic_score(x, tid, model, top_n))
