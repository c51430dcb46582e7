import json
import logging

import pytest

from topicsteer.models import Vocabulary
from topicsteer.topics import (
    TopicModel,
    TopicModelFormatError,
    expand_word,
    load_topic_model,
    topic_token_set,
)


def write_topics(tmp_path, payload) -> str:
    path = tmp_path / "topics.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadTopicModel:
    def test_parse_two_topics(self, tmp_path):
        path = write_topics(tmp_path, {
            "topics": [
                {"id": 0, "words": [[f"word{i}", 25 - i] for i in range(25)]},
                {"id": 1, "words": [[f"other{i}", 25 - i] for i in range(25)]},
            ]
        })
        model = load_topic_model(path)
        assert len(model.topics) == 2
        assert len(model.top_words(0, 25)) == 25

    def test_negative_weight(self, tmp_path):
        path = write_topics(tmp_path, {"topics": [{"id": 0, "words": [["a", -0.1]]}]})
        with pytest.raises(TopicModelFormatError, match="finite and >= 0"):
            load_topic_model(path)

    @pytest.mark.parametrize("weight", [10**400, float("nan"), float("-inf")], ids=["10**400", "nan", "-inf"])
    def test_non_finite_weight_names_file_and_word(self, tmp_path, weight):
        # 10**400 used to escape as a bare OverflowError
        path = write_topics(tmp_path, {"topics": [{"id": 0, "words": [["a", 1.0], ["b", weight]]}]})
        with pytest.raises(TopicModelFormatError, match=r"topics\.json: topic 0 weight for 'b' must be finite"):
            load_topic_model(path)

    @pytest.mark.parametrize("tid", [1.5, True, "0", None], ids=repr)
    def test_non_integer_topic_id_names_file(self, tmp_path, tid):
        path = write_topics(tmp_path, {"topics": [{"id": tid, "words": [["a", 1.0]]}]})
        with pytest.raises(TopicModelFormatError, match=r"topics\.json: topic id .* is not an integer"):
            load_topic_model(path)

    def test_empty_topic(self, tmp_path):
        path = write_topics(tmp_path, {"topics": [{"id": 0, "words": []}]})
        with pytest.raises(TopicModelFormatError, match="at least one word"):
            load_topic_model(path)

    def test_unsorted_words_resorted(self, tmp_path):
        path = write_topics(tmp_path, {
            "topics": [{"id": 3, "words": [["low", 0.1], ["high", 0.9], ["mid", 0.5]]}]
        })
        model = load_topic_model(path)
        assert [w for w, _ in model.topics[3]] == ["high", "mid", "low"]

    def test_duplicate_topic_id(self, tmp_path):
        path = write_topics(tmp_path, {
            "topics": [{"id": 0, "words": [["a", 1]]}, {"id": 0, "words": [["b", 1]]}]
        })
        with pytest.raises(TopicModelFormatError, match="duplicate topic id"):
            load_topic_model(path)

    def test_words_lowercased(self, tmp_path):
        path = write_topics(tmp_path, {"topics": [{"id": 0, "words": [["Court", 1.0]]}]})
        assert load_topic_model(path).topics[0][0][0] == "court"


class TestExpandWord:
    def test_running_variants(self):
        variants = expand_word("running").variants
        assert {"running", "run", "Running", " running", " run", " Running"} <= variants
        assert {"Run", " Run"} <= variants

    def test_stem_equals_word(self):
        variants = expand_word("court").variants
        assert variants == {"court", "Court", " court", " Court"}

    def test_single_letter(self):
        assert expand_word("a").variants == {"a", "A", " a", " A"}

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            expand_word("")

    def test_original_word_always_included(self):
        for word in ("court", "running", "a", "xyzzy"):
            v = expand_word(word)
            assert word in v.variants

    def test_stem_expansion_is_idempotent(self):
        # expanding a stem yields a set whose stem variant is itself
        from topicsteer.stemmer import stem

        for word in ("running", "hearing", "evidence", "gravity", "telescope"):
            s = stem(word)
            assert stem(s) == s
            assert s in expand_word(s).variants


class TestTopicTokenSet:
    def make_vocab(self, extra=()):
        tokens = ["<s>", "</s>", " court", "court", " Court", " judge", "judge", " the"]
        tokens += list(extra)
        return Vocabulary.from_tokens(tokens, bos="<s>", eos="</s>")

    def make_model(self):
        return TopicModel(topics={0: (("court", 0.6), ("judge", 0.4)), 7: (("zebra", 1.0),)})

    def test_exact_matches_collected(self):
        vocab = self.make_vocab()
        tset = topic_token_set(0, self.make_model(), vocab, top_n=25)
        ids = {vocab.lookup(t) for t in (" court", "court", " Court", " judge", "judge")}
        assert tset.token_ids == frozenset(ids)
        assert tset.provenance[vocab.lookup(" court")] == "court"
        assert tset.provenance[vocab.lookup(" judge")] == "judge"

    def test_no_matches_is_empty_and_warns(self, caplog):
        vocab = self.make_vocab()
        with caplog.at_level(logging.WARNING):
            tset = topic_token_set(7, self.make_model(), vocab)
        assert len(tset) == 0
        assert "matches the vocabulary" in caplog.text

    def test_unknown_topic(self):
        with pytest.raises(KeyError, match="unknown topic"):
            topic_token_set(99, self.make_model(), self.make_vocab())

    def test_top_n_must_be_positive(self):
        with pytest.raises(ValueError, match="top_n"):
            topic_token_set(0, self.make_model(), self.make_vocab(), top_n=0)

    def test_collision_keeps_first_word_by_weight(self):
        # 'ruling' and 'rules' both stem to 'rule'; the heavier word wins provenance
        vocab = Vocabulary.from_tokens(["<s>", "</s>", "rule"], bos="<s>", eos="</s>")
        model = TopicModel(topics={0: (("ruling", 0.7), ("rules", 0.3))})
        tset = topic_token_set(0, model, vocab)
        assert tset.token_ids == frozenset({2})
        assert tset.provenance[2] == "ruling"

    def test_monotone_in_top_n(self):
        vocab = self.make_vocab()
        model = self.make_model()
        for n in range(1, 4):
            smaller = topic_token_set(0, model, vocab, top_n=n).token_ids
            larger = topic_token_set(0, model, vocab, top_n=n + 1).token_ids
            assert smaller <= larger

    def test_variant_closure(self):
        # every variant of a top word that is literally a token must be in the set
        vocab = self.make_vocab()
        model = self.make_model()
        tset = topic_token_set(0, model, vocab, top_n=2)
        for word, _w in model.top_words(0, 2):
            for variant in expand_word(word).variants:
                tid = vocab.lookup(variant)
                if tid is not None:
                    assert tid in tset.token_ids

    def test_multi_token_words_contribute_nothing(self):
        vocab = Vocabulary.from_tokens(["<s>", "</s>", " spa", "cecraft"], bos="<s>", eos="</s>")
        model = TopicModel(topics={0: (("spacecraft", 1.0),)})
        assert len(topic_token_set(0, model, vocab)) == 0

