"""Correctness oracles, written apart from the package and run after timing.

Each check returns a list of failure messages; an empty list means it held.
Steering, truncation and LCS are re-implemented here from their definitions
so that a fault in the package cannot hide behind itself.
"""

from __future__ import annotations

import math
import re

import numpy as np

_WORD = re.compile(r"[a-z0-9]+")
REL_TOL = 1e-9


def reference_steer(x: np.ndarray, method: str, ids: np.ndarray, c: float = 0.0,
                    theta: float = 0.0, beta: float = 0.0) -> np.ndarray:
    """Shift or threshold on a sorted id array; 'none' is the identity."""
    y = x.copy()
    if method == "constant_shift":
        y[ids] = x[ids] + c
    elif method == "threshold_selection" and ids.size:
        p = np.exp(x - x.max())
        p /= p.sum()
        y[ids[p[ids] >= theta]] = x.max() + beta
    return y


def reference_greedy(logits, prefix, steer, eos, min_new, max_new) -> tuple[int, ...]:
    """Argmax decoding from its definition; ties go to the lowest id."""
    seq, out = list(prefix), []
    while len(out) < max_new:
        x = steer(logits(seq[-1]))
        if len(out) < min_new:
            x[eos] = -np.inf
        token = int(np.flatnonzero(x == x.max())[0])
        out.append(token)
        seq.append(token)
        if token == eos:
            break
    return tuple(out)


def reference_truncated_ids(x: np.ndarray, top_k: int, top_p: float) -> np.ndarray:
    """Ids kept by top-k then top-p, ranked by (-score, id)."""
    ranked = np.lexsort((np.arange(x.size), -x))[:top_k]
    ranked = ranked[np.isfinite(x[ranked])]
    if top_p < 1.0:
        w = np.exp(x[ranked] - x[ranked[0]])
        before = (np.cumsum(w) - w) / w.sum()
        ranked = ranked[before < top_p]
    return ranked


def check_result(tokens, log_prob, strategy, logits, steer, chain_apply, topic_ids,
                 prefix, eos, config) -> list[str]:
    """Bounds, per-step truncation membership, log_prob and chain bit-identity."""
    errors = []
    n = len(tokens)
    if not config.min_new_tokens <= n <= config.max_new_tokens:
        errors.append(f"{strategy}: length {n} outside [{config.min_new_tokens}, {config.max_new_tokens}]")
    if eos in tokens[:-1] or (n < config.max_new_tokens and (n == 0 or tokens[-1] != eos)):
        errors.append(f"{strategy}: EOS placement wrong in {tokens}")
    non_topic = np.ones(0, dtype=bool)
    seq, total = list(prefix), 0.0
    for step, token in enumerate(tokens):
        raw = logits(seq[-1])
        expected = steer(raw)
        applied = chain_apply(raw)
        if non_topic.size != raw.size:
            non_topic = np.ones(raw.size, dtype=bool)
            non_topic[topic_ids] = False
        if not np.array_equal(applied[non_topic].view(np.uint64), raw[non_topic].view(np.uint64)):
            errors.append(f"{strategy}: chain.apply changed a non-topic entry at step {step}")
        if not np.array_equal(applied, expected):
            errors.append(f"{strategy}: chain.apply differs from the reference at step {step}")
        x = expected
        if step < config.min_new_tokens:
            x[eos] = -np.inf
        kept = np.flatnonzero(np.isfinite(x)) if strategy == "greedy" else \
            reference_truncated_ids(x, config.top_k, config.top_p)
        if token not in set(kept.tolist()):
            errors.append(f"{strategy}: token {token} at step {step} is outside the truncated set")
            break
        scores = x[kept]
        total += x[token] - (scores.max() + math.log(np.exp(scores - scores.max()).sum()))
        seq.append(token)
    if not math.isclose(total, log_prob, rel_tol=REL_TOL, abs_tol=REL_TOL):
        errors.append(f"{strategy}: log_prob {log_prob!r} but the reference gives {total!r}")
    return errors


def lcs_length(a: list[str], b: list[str]) -> int:
    """Full-table dynamic programme, indexed from the ends of both sequences."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) - 1, -1, -1):
        for j in range(len(b) - 1, -1, -1):
            table[i][j] = table[i + 1][j + 1] + 1 if a[i] == b[j] else max(table[i + 1][j], table[i][j + 1])
    return table[0][0]


def reference_rouge_l(candidate: str, reference: str, stem) -> float:
    cand = [stem(w) for w in _WORD.findall(candidate.lower())]
    ref = [stem(w) for w in _WORD.findall(reference.lower())]
    lcs = lcs_length(cand, ref) if cand and ref else 0
    if lcs == 0:
        return 0.0
    precision, recall = lcs / len(cand), lcs / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def token_fraction(tokens, members: frozenset, specials: tuple[int, int]) -> float:
    content = [t for t in tokens if t not in specials]
    return sum(t in members for t in content) / len(content) if content else 0.0
