"""Reference reweighting: the per-method functions and the multi-step chain.

These are topicsteer.reweight's functions and ProcessorChain as they were
before every method shared one rewrite, copied unchanged. tests/test_reweight.py
checks build_chain(...).apply and the public functions against them: bit-equal
outputs, or the same exception type on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from topicsteer.models import LogitVector, softmax
from topicsteer.reweight import ReweightConfig, VocabularyMismatchError


def _token_id_array(topic: object, size: int) -> np.ndarray:
    """Sorted unique token ids from a TopicTokenSet or any iterable of ids."""
    ids = getattr(topic, "token_ids", topic)
    arr = np.array(sorted({int(i) for i in ids}), dtype=np.intp)
    if arr.size and (arr[0] < 0 or arr[-1] >= size):
        raise VocabularyMismatchError(
            f"topic token ids span [{arr[0]}, {arr[-1]}] but the logit vector has {size} entries"
        )
    return arr


def _validated(scores: LogitVector) -> np.ndarray:
    x = np.asarray(scores, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("logit vector must be one-dimensional")
    if not np.isfinite(x).all():
        raise ValueError("logit vector must be finite before reweighting")
    return x


def _finite(values: np.ndarray, method: str) -> np.ndarray:
    """Rewritten topic logits, checked: an overflow must not mask tokens silently."""
    if not np.isfinite(values).all():
        raise ValueError(f"{method}: a rewritten topic logit is not finite")
    return values


def constant_shift(scores: LogitVector, topic: Iterable[int], c: float) -> np.ndarray:
    """Add c to every topic token's logit; all other entries are unchanged."""
    x = _validated(scores)
    ids = _token_id_array(topic, x.size)
    out = x.copy()
    out[ids] = _finite(x[ids] + c, "constant_shift")
    return out


def factor_scaling(scores: LogitVector, topic: Iterable[int], alpha: float) -> np.ndarray:
    """Multiply every topic token's logit by alpha; others unchanged."""
    x = _validated(scores)
    ids = _token_id_array(topic, x.size)
    out = x.copy()
    out[ids] = _finite(x[ids] * alpha, "factor_scaling")
    return out


def threshold_selection(
    scores: LogitVector, topic: Iterable[int], theta: float, beta: float
) -> np.ndarray:
    """Raise likely topic tokens to the original max logit plus beta.

    Probabilities and the maximum are computed once from the original vector,
    then every qualifying boost is applied simultaneously, so the result does
    not depend on token-id order. The comparison against theta is an exact >=
    with no epsilon.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError("beta must be finite and >= 0")
    x = _validated(scores)
    ids = _token_id_array(topic, x.size)
    out = x.copy()
    if ids.size == 0:
        return out
    probs = softmax(x)
    peak = x.max()
    selected = ids[probs[ids] >= theta]
    out[selected] = _finite(np.full(selected.size, peak + beta), "threshold_selection")
    return out


def apply_reweight(scores: LogitVector, topic: Iterable[int], config: ReweightConfig) -> np.ndarray:
    """Apply one configured method; method "none" copies the input verbatim."""
    if config.method == "none":
        return _validated(scores).copy()
    if config.method == "constant_shift":
        return constant_shift(scores, topic, config.c)
    if config.method == "factor_scaling":
        return factor_scaling(scores, topic, config.alpha)
    return threshold_selection(scores, topic, config.theta, config.beta)


@dataclass(frozen=True)
class ProcessorChain:
    """Ordered reweighting steps applied left to right; empty is the identity."""

    steps: tuple[tuple[ReweightConfig, object], ...] = ()

    def apply(self, scores: LogitVector) -> np.ndarray:
        x = np.asarray(scores, dtype=np.float64).copy()
        for config, topic in self.steps:
            x = apply_reweight(x, topic, config)
        return x


def build_chain(config: ReweightConfig, topic: object) -> ProcessorChain:
    """Single-step chain for a condition; method "none" yields the empty chain."""
    if config.method == "none":
        return ProcessorChain()
    return ProcessorChain(steps=((config, topic),))
