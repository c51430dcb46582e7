"""Reference dictionary score: per-word weights re-summed on every call.

``word_topic_weights`` is the loop of ``TopicModel.word_topic_weights`` and
``dict_topic_score`` the scorer as they were before a topic model held each
word's topic shares, both copied unchanged except that the index is built by
a function instead of a cached property. tests/test_scoring.py checks the
package's scorer against this copy: ``float.hex``-equal scores, the same
``KeyError`` for an unknown topic and the same warning for a summary with no
dictionary word.
"""

from __future__ import annotations

import logging

from topicsteer.scoring import tokenize_words
from topicsteer.topics import TopicModel

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
