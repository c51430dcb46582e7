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

Each decoding step is one rewrite: ``build_chain`` sorts the topic ids once,
and every method goes through ``_rewrite``, which validates the logits,
range-checks the ids and writes the method's values. It works on an (n, V)
block, one logit vector per row, so the decoding engine rewrites all live
hypotheses of a step at once and in place (``ProcessorChain.apply_in_place``).
The public functions and ``ProcessorChain.apply`` are its one-row case: they
copy once and never mutate their input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .models import LogitVector, as_int, as_real, flat_ids, softmax  # noqa: F401  (tracers wrap softmax)

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
_NO_IDS = np.empty(0, dtype=np.intp)


class VocabularyMismatchError(ValueError):
    """Topic token ids do not fit the logit vector they are applied to."""


@dataclass(frozen=True)
class ReweightConfig:
    """Which method to apply and its strength.

    Only the fields of the active method are read: ``c`` for constant_shift,
    ``alpha`` for factor_scaling, ``theta`` and ``beta`` for
    threshold_selection. All four are validated here and nowhere else.
    """

    method: str = "none"
    c: float = 0.0
    alpha: float = 1.0
    theta: float = 0.005
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for name in ("c", "alpha", "theta", "beta"):
            as_real(getattr(self, name), name)
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("selection threshold theta must lie in [0, 1]")
        if self.beta < 0.0:
            raise ValueError("encouragement factor beta must be >= 0")


def _sorted_ids(topic: object) -> np.ndarray:
    """Sorted unique token ids from a TopicTokenSet or any iterable of integer ids.

    A float or bool id is rejected rather than truncated onto another token.
    """
    ids = getattr(topic, "token_ids", topic)
    return np.array(sorted({as_int(i, "topic token id") for i in ids}), dtype=np.intp)


def _rewrite(x: np.ndarray, ids: np.ndarray, config: ReweightConfig) -> np.ndarray:
    """The one reweighting step: rewrite the topic ``ids`` of every row of ``x`` in place and return it.

    ``x`` is a float64 (n, V) block that the caller owns; each row is one
    logit vector and is rewritten as if alone. ``ids`` must be sorted and
    unique, and empty for method "none". Every check runs before the first
    write. The values are computed from the original rows, so threshold
    selection does not depend on token order; its comparison against theta
    is an exact >= with no epsilon, against each row's own softmax.
    """
    if not np.isfinite(x).all():
        raise ValueError("logit vector must be finite before reweighting")
    size = x.shape[1]
    if ids.size and (ids[0] < 0 or ids[-1] >= size):
        raise VocabularyMismatchError(
            f"topic token ids span [{ids[0]}, {ids[-1]}] but the logit vector has {size} entries"
        )
    if ids.size == 0:
        return x
    values = x.take(ids, axis=1)
    if config.method == "constant_shift":
        values += config.c
    elif config.method == "factor_scaling":
        values *= config.alpha
    else:
        # Each row's softmax, divided only at the topic ids: the same quotients as ``softmax(x)``.
        top = x.max(axis=1, keepdims=True)
        e = x - top
        np.exp(e, out=e)
        raised = e.take(ids, axis=1) / e.sum(axis=1, keepdims=True) >= config.theta
        np.copyto(values, top + config.beta, where=raised)
    # An overflow must not mask tokens silently.
    if not np.isfinite(values).all():
        raise ValueError(f"{config.method}: a rewritten topic logit is not finite")
    x.put(flat_ids(ids, len(x), size), values)
    return x


def _rewritten(scores: LogitVector, ids: np.ndarray, config: ReweightConfig) -> np.ndarray:
    """A rewritten copy of the one-dimensional vector ``scores``: the one-row case of ``_rewrite``."""
    x = np.array(scores, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("logit vector must be one-dimensional")
    _rewrite(x[None], ids, config)
    return x


def constant_shift(scores: LogitVector, topic: Iterable[int], c: float) -> np.ndarray:
    """Add c to every topic token's logit; all other entries are unchanged."""
    return _rewritten(scores, _sorted_ids(topic), ReweightConfig("constant_shift", c=c))


def factor_scaling(scores: LogitVector, topic: Iterable[int], alpha: float) -> np.ndarray:
    """Multiply every topic token's logit by alpha; others unchanged."""
    return _rewritten(scores, _sorted_ids(topic), ReweightConfig("factor_scaling", alpha=alpha))


def threshold_selection(scores: LogitVector, topic: Iterable[int], theta: float, beta: float) -> np.ndarray:
    """Raise topic tokens with original probability >= theta to the original max logit plus beta."""
    return _rewritten(scores, _sorted_ids(topic), ReweightConfig("threshold_selection", theta=theta, beta=beta))


def apply_reweight(scores: LogitVector, topic: Iterable[int], config: ReweightConfig) -> np.ndarray:
    """Apply one configured method; method "none" copies the input verbatim."""
    return _rewritten(scores, _NO_IDS if config.method == "none" else _sorted_ids(topic), config)


@dataclass(frozen=True, eq=False)
class ProcessorChain:
    """One compiled reweighting step with its sorted topic ids; the default (method "none") copies."""

    config: ReweightConfig = ReweightConfig()
    ids: np.ndarray = field(default_factory=lambda: _NO_IDS)

    def apply(self, scores: LogitVector) -> np.ndarray:
        """A rewritten copy of one logit vector."""
        if self.config.method == "none":
            return np.asarray(scores, dtype=np.float64).copy()
        return _rewritten(scores, self.ids, self.config)

    def apply_in_place(self, block: np.ndarray) -> np.ndarray:
        """Rewrite each row of a float64 (n, V) block that the caller owns, as ``apply`` would; return it."""
        if self.config.method != "none":
            _rewrite(block, self.ids, self.config)
        return block


def build_chain(config: ReweightConfig, topic: object) -> ProcessorChain:
    """Compile a condition's step once, sorting the topic ids; method "none" is the identity."""
    if config.method == "none":
        return ProcessorChain()
    return ProcessorChain(config, _sorted_ids(topic))
