"""Reweighting of topic-relevant token logits, applied before sampling.

Three methods rewrite the scores of a chosen token set and leave every other
entry bit-identical:

* constant shift: add c to each topic logit. Uniform push regardless of the
  original score; negative c suppresses the tokens instead.
* factor scaling: multiply each topic logit by alpha. The effect direction
  depends on the logit's sign: alpha in (0, 1) raises negative logits and
  lowers positive ones, alpha > 1 does the reverse. Applied verbatim, with
  no sign-adaptive correction.
* threshold selection: convert the original vector to probabilities; every
  topic token at or above the probability threshold theta is raised to the
  original maximum logit plus an encouragement factor beta. Tokens the model
  already considered plausible jump to the front; the rest are untouched.

All functions are pure: they return new arrays and never mutate their input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .models import LogitVector, softmax

__all__ = [
    "METHODS",
    "ProcessorChain",
    "ReweightConfig",
    "VocabularyMismatchError",
    "apply_reweight",
    "build_chain",
    "constant_shift",
    "factor_scaling",
    "threshold_selection",
]

METHODS = ("none", "constant_shift", "factor_scaling", "threshold_selection")


class VocabularyMismatchError(ValueError):
    """Topic token ids do not fit the logit vector they are applied to."""


@dataclass(frozen=True)
class ReweightConfig:
    """Which method to apply and its strength.

    Only the fields of the active method are read: ``c`` for constant_shift,
    ``alpha`` for factor_scaling, ``theta`` and ``beta`` for
    threshold_selection.
    """

    method: str = "none"
    c: float = 0.0
    alpha: float = 1.0
    theta: float = 0.005
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not math.isfinite(self.c):
            raise ValueError("shift constant c must be finite")
        if not math.isfinite(self.alpha):
            raise ValueError("scaling factor alpha must be finite")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("selection threshold theta must lie in [0, 1]")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError("encouragement factor beta must be finite and >= 0")


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
