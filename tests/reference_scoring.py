"""Reference scorers: the package's scoring as it was, kept verbatim.

``word_topic_weights`` is the loop of ``TopicModel.word_topic_weights`` and
``dict_topic_score`` the scorer as they were before a topic model held each
word's topic shares, both copied unchanged except that the index is built by
a function instead of a cached property. tests/test_scoring.py checks the
package's scorer against this copy: ``float.hex``-equal scores, the same
``KeyError`` for an unknown topic and the same warning for a summary with no
dictionary word.

``_lcs_length`` is the quadratic LCS table, and ``lemma_topic_score``,
``rouge_l_f1`` and ``score_summary`` the per-metric composition that
tokenised and stemmed the summary once per metric, all as they were before
the LCS went bit-parallel and each text was stemmed once; its dictionary
score is the ``dict_topic_score`` above, so it warns on this module's
logger. The tests check the package's ``_lcs_length`` and ``score_summary``
against them.
"""

from __future__ import annotations

import logging
from typing import Mapping, Sequence

from topicsteer.decoding import GenerationResult
from topicsteer.models import Vocabulary
from topicsteer.scoring import token_topic_score, tokenize_words
from topicsteer.stemmer import stem
from topicsteer.topics import DEFAULT_TOP_N, TopicModel, TopicTokenSet, topic_token_set

logger = logging.getLogger(__name__)


def word_topic_weights(model: TopicModel) -> dict[str, dict[int, float]]:
    """Per-word map of the topics containing it and their weights."""
    index: dict[str, dict[int, float]] = {}
    for tid, words in model.topics.items():
        for word, weight in words:
            index.setdefault(word, {})[tid] = weight
    return index


def dict_topic_score(summary: str, topic_id: int, model: TopicModel) -> float:
    """Mean posterior of the target topic over in-dictionary summary words.

    For each summary word that appears in any topic's word list, the word's
    weights are normalized over the topics containing it; the score averages
    the target topic's share across those words. Words outside the dictionary
    are skipped; a summary with no in-dictionary words scores 0 (warned).
    """
    if topic_id not in model.topics:
        raise KeyError(f"unknown topic id {topic_id}")
    index = word_topic_weights(model)
    shares: list[float] = []
    for word in tokenize_words(summary):
        weights = index.get(word)
        if weights is None:
            continue
        total = sum(weights.values())
        if total <= 0.0:
            continue
        shares.append(weights.get(topic_id, 0.0) / total)
    if not shares:
        logger.warning("dictionary score: no summary word found in the topic model dictionary")
        return 0.0
    return sum(shares) / len(shares)


def lemma_topic_score(
    summary: str,
    topic_id: int,
    model: TopicModel,
    top_n: int = DEFAULT_TOP_N,
) -> float:
    """Weight mass of top-n topic words whose stem occurs in the summary.

    Each (word, weight) pair counts its full weight once when the stemmed
    word appears among the summary's stems, normalized by the total weight of
    the top-n words.
    """
    pairs = model.top_words(topic_id, top_n)
    total = sum(weight for _word, weight in pairs)
    if total <= 0.0:
        return 0.0
    present = {stem(w) for w in tokenize_words(summary)}
    covered = sum(weight for word, weight in pairs if stem(word) in present)
    return covered / total


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence via a rolling-row DP table."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for item in a:
        current = [0]
        for j, other in enumerate(b, start=1):
            if item == other:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def rouge_l_f1(candidate: str, reference: str) -> float:
    """ROUGE-L F1 over stemmed words of the two texts; empty input scores 0."""
    cand = [stem(w) for w in tokenize_words(candidate)]
    ref = [stem(w) for w in tokenize_words(reference)]
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def score_summary(
    result: GenerationResult,
    article_id: str,
    condition: str,
    steered_tid: int,
    topics: tuple[int, int],
    references: tuple[str, str],
    model: TopicModel,
    vocab: Vocabulary,
    top_n: int = DEFAULT_TOP_N,
    token_sets: Mapping[int, TopicTokenSet] | None = None,
) -> dict[str, str | int | float]:
    """Score one generated summary against both of its article's topics.

    Returns the key columns and the seven float metrics, in REPORT_COLUMNS
    order. ROUGE-L is computed against the reference summary of the steered
    topic. ``token_sets`` may supply prebuilt topic token sets (keyed by
    topic id) to avoid re-expanding topics per call.
    """
    tid1, tid2 = topics
    ref1, ref2 = references
    if not ref1 or not ref2:
        raise ValueError("both reference summaries must be non-empty")
    if not condition:
        raise ValueError("condition label must be non-empty")
    if tid1 == tid2:
        raise ValueError("tid1 and tid2 must be distinct")
    if steered_tid not in topics:
        raise ValueError("steered_tid must be tid1 or tid2")
    text = vocab.decode(result.tokens)
    content_ids = [t for t in result.tokens if not vocab.is_special(t)]
    scores: dict[str, str | int | float] = dict(article_id=article_id, condition=condition, steered_tid=steered_tid)
    for suffix, tid in (("t1", tid1), ("t2", tid2)):
        if token_sets is not None and tid in token_sets:
            tset = token_sets[tid]
        else:
            tset = topic_token_set(tid, model, vocab, top_n)
        scores["lemma_" + suffix] = lemma_topic_score(text, tid, model, top_n)
        scores["token_" + suffix] = token_topic_score(content_ids, tset)
        scores["dict_" + suffix] = dict_topic_score(text, tid, model)
    scores["rouge_l_f1"] = rouge_l_f1(text, ref1 if steered_tid == tid1 else ref2)
    return scores
