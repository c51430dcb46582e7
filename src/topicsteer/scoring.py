"""Topical-focus and quality scoring for generated summaries.

Three topical scores measure how much of a topic's vocabulary a summary
uses (stem overlap, token-id overlap, and per-word topic posterior), and
ROUGE-L F1 measures overlap with a reference summary. ``score_summary``
scores one report row, stemming each text once, and ``report_row`` formats
it into the strings of one CSV row; the public per-metric scorers return
the same values. Embedding-based quality metrics are out of native scope:
``experiment.merge_external_scores`` (``topicsteer merge``) joins
externally computed values into a report CSV.
"""

from __future__ import annotations

import csv
import functools
import logging
import re
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .decoding import GenerationResult
from .models import Vocabulary
from .stemmer import stem
from .topics import DEFAULT_TOP_N, TopicModel, TopicTokenSet, topic_token_set

__all__ = [
    "KEY_COLUMNS",
    "METRIC_COLUMNS",
    "REPORT_COLUMNS",
    "dict_topic_score",
    "lemma_topic_score",
    "report_row",
    "rouge_l_f1",
    "score_summary",
    "token_topic_score",
    "tokenize_words",
    "write_report_csv",
]

logger = logging.getLogger(__name__)

_WORD_RE = re.compile(r"[a-z0-9]+")


def tokenize_words(text: str) -> list[str]:
    """Lowercase word extraction; punctuation splits and is dropped."""
    return _WORD_RE.findall(text.lower())


def _lemma_score(present: set[str], topic_id: int, model: TopicModel, top_n: int) -> float:
    """``lemma_topic_score`` of a summary whose set of stems is ``present``."""
    pairs = model.top_words(topic_id, top_n)
    total = sum(weight for _word, weight in pairs)
    if total <= 0.0:
        return 0.0
    covered = sum(weight for (_word, weight), s in zip(pairs, model.word_stems[topic_id]) if s in present)
    return covered / total


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
    return _lemma_score({stem(w) for w in tokenize_words(summary)}, topic_id, model, top_n)


def token_topic_score(summary_ids: Sequence[int], topic_set: TopicTokenSet | Iterable[int]) -> float:
    """Fraction of summary token positions whose id belongs to the topic set."""
    ids = list(summary_ids)
    if not ids:
        return 0.0
    members = getattr(topic_set, "token_ids", topic_set)
    members = members if isinstance(members, (set, frozenset)) else set(members)
    return sum(1 for t in ids if t in members) / len(ids)


def _dict_score(words: Sequence[str], topic_id: int, model: TopicModel) -> float:
    """``dict_topic_score`` of a summary whose words are ``words``."""
    if topic_id not in model.topics:
        raise KeyError(f"unknown topic id {topic_id}")
    index = model.word_topic_shares
    shares = [index[word].get(topic_id, 0.0) for word in words if word in index]
    if not shares:
        logger.warning("dictionary score: no summary word found in the topic model dictionary")
        return 0.0
    return sum(shares) / len(shares)


def dict_topic_score(summary: str, topic_id: int, model: TopicModel) -> float:
    """Mean posterior of the target topic over in-dictionary summary words.

    Each summary word in the model's ``word_topic_shares`` contributes the
    target topic's share of its weight (0 if the topic does not list it); the
    score averages those shares. Words outside the dictionary, or whose
    weights sum to 0, are skipped; a summary with no such words scores 0
    (warned).
    """
    return _dict_score(tokenize_words(summary), topic_id, model)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence, bit-parallel (Allison & Dix 1986; Hyyrö 2004).

    Bit j of ``v`` stands for position j of ``b``. After each item of ``a``,
    bit j is 0 where the LCS of the items so far with ``b[:j + 1]`` is one
    longer than with ``b[:j]``, so the 0 bits count the LCS length: the same
    integer as the quadratic table, at a few integer operations per item. An
    item absent from ``b`` leaves ``v`` as it is.
    """
    masks: dict[str, int] = {}
    for j, item in enumerate(b):
        masks[item] = masks.get(item, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for item in a:
        if item in masks:
            u = v & masks[item]
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _rouge_l(cand: Sequence[str], ref: Sequence[str]) -> float:
    """ROUGE-L F1 of two stem sequences; an empty side scores 0."""
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# A sweep scores each reference in every row of its article: stem it once.
@functools.lru_cache(maxsize=256)
def _reference_stems(text: str) -> tuple[str, ...]:
    return tuple(stem(w) for w in tokenize_words(text))


def rouge_l_f1(candidate: str, reference: str) -> float:
    """ROUGE-L F1 over stemmed words of the two texts; empty input scores 0."""
    return _rouge_l([stem(w) for w in tokenize_words(candidate)], _reference_stems(reference))


KEY_COLUMNS = ("article_id", "condition", "steered_tid")
METRIC_COLUMNS = ("lemma_t1", "token_t1", "dict_t1", "lemma_t2", "token_t2", "dict_t2", "rouge_l_f1")
REPORT_COLUMNS = KEY_COLUMNS + METRIC_COLUMNS


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
    words = tokenize_words(vocab.decode(result.tokens))
    stems = [stem(w) for w in words]
    present = set(stems)
    special = (vocab.bos_id, vocab.eos_id)
    content_ids = [t for t in result.tokens if t not in special]
    scores: dict[str, str | int | float] = dict(article_id=article_id, condition=condition, steered_tid=steered_tid)
    for suffix, tid in (("t1", tid1), ("t2", tid2)):
        if token_sets is not None and tid in token_sets:
            tset = token_sets[tid]
        else:
            tset = topic_token_set(tid, model, vocab, top_n)
        scores["lemma_" + suffix] = _lemma_score(present, tid, model, top_n)
        scores["token_" + suffix] = token_topic_score(content_ids, tset)
        scores["dict_" + suffix] = _dict_score(words, tid, model)
    scores["rouge_l_f1"] = _rouge_l(stems, _reference_stems(ref1 if steered_tid == tid1 else ref2))
    return scores


def format_score(value: float) -> str:
    return format(float(value), ".12g")


def report_row(scores: Mapping[str, str | int | float]) -> dict[str, str]:
    """One CSV row of a ``score_summary`` mapping: key columns as text, metrics formatted."""
    return {c: str(scores[c]) if c in KEY_COLUMNS else format_score(scores[c]) for c in REPORT_COLUMNS}


def write_report_csv(rows: Iterable[Mapping[str, str]], path: str | Path, columns: Sequence[str]) -> None:
    """Write rows with a fixed column order and unix newlines (byte-stable)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), lineterminator="\n", restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
