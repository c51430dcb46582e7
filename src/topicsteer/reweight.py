"""Reweighting of topic-relevant token logits, applied before sampling.

Three methods rewrite the scores of a chosen token set and leave every other
entry bit-identical. Constant shift adds c to each topic logit (a negative c
suppresses them). Factor scaling multiplies each by alpha, verbatim: alpha
in (0, 1) raises negative logits and lowers positive ones, alpha > 1 does
the reverse. Threshold selection raises every topic token whose original
probability is at least theta to the original maximum logit plus beta.

``build_chain`` compiles a method and its sorted topic ids into a
``ProcessorChain``, whose ``bind`` is the one rewrite, of an (n, V) block in
place. ``ProcessorChain.apply`` is its one-row case, on a copy; the three
method functions and ``apply_reweight`` go through it.
``models.NonFiniteLogitsError`` states the rule for non-finite logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

# softmax is imported for tracers to wrap; no code here calls it
from .models import LogitVector, NonFiniteLogitsError, as_int, as_logit_vector, as_real, softmax  # noqa: F401

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
_LOWEST = np.finfo(np.float64).min


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
            object.__setattr__(self, name, as_real(getattr(self, name), name))
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


def _flat_ids(ids: np.ndarray, rows: int, size: int) -> np.ndarray:
    """Sorted token ids as indices into a flattened (rows, size) block: row i's ids offset by i * size.

    A single row needs no offset, so its ids come back as they are.
    """
    return ids if rows == 1 else ids + np.arange(0, rows * size, size)[:, None]


def constant_shift(scores: LogitVector, topic: Iterable[int], c: float) -> np.ndarray:
    """Add c to every topic token's logit; all other entries are unchanged."""
    return apply_reweight(scores, topic, ReweightConfig("constant_shift", c=c))


def factor_scaling(scores: LogitVector, topic: Iterable[int], alpha: float) -> np.ndarray:
    """Multiply every topic token's logit by alpha; others unchanged."""
    return apply_reweight(scores, topic, ReweightConfig("factor_scaling", alpha=alpha))


def threshold_selection(scores: LogitVector, topic: Iterable[int], theta: float, beta: float) -> np.ndarray:
    """Raise topic tokens with original probability >= theta to the original max logit plus beta."""
    return apply_reweight(scores, topic, ReweightConfig("threshold_selection", theta=theta, beta=beta))


def apply_reweight(scores: LogitVector, topic: Iterable[int], config: ReweightConfig) -> np.ndarray:
    """Apply one configured method to a copy of ``scores``; method "none" copies it verbatim."""
    return build_chain(config, topic).apply(scores)


@dataclass(frozen=True, eq=False)
class ProcessorChain:
    """One compiled reweighting step and its sorted, unique topic ids; the default, method "none", has none.

    A chain also keeps the memos of the decodes made through it, which ``decoding._decode`` owns and states.
    """

    config: ReweightConfig = ReweightConfig()
    ids: np.ndarray = field(default_factory=lambda: _NO_IDS)
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    def apply(self, scores: LogitVector) -> np.ndarray:
        """A rewritten copy of one logit vector (``models.as_logit_vector``): the one-row case of ``bind``."""
        x = as_logit_vector(scores)
        return self.bind(1, x.size)(x[None])[0]

    def bind(self, rows: int, size: int) -> Callable[[np.ndarray], np.ndarray]:
        """This step's rewrite, bound to blocks of at most ``rows`` rows of ``size`` logits.

        Binding checks the ids against ``size`` and lays out their flat indices
        once. The rewrite takes a float64 (n, size) block with n <= rows that
        the caller owns, rewrites every row's topic ids in place as if the row
        were alone (method "none" has no ids), and returns it. Values come from
        the original rows: threshold selection compares each row's own softmax
        with theta by an exact >=. Its checks run before the first write: at
        most ``rows`` rows, ``size`` entries each, and ids that fit (a mismatch
        found when binding is raised here). It does not scan for NaN or +inf:
        only when a rewritten value is not finite (a mask, a NaN or +inf at a
        topic id or in a threshold row's max, or an overflow) does it look, and
        then it raises ``NonFiniteLogitsError`` for a block that holds one and
        ValueError for a non-finite value whose input was not -inf.
        """
        ids, config = self.ids, self.config
        mismatch = ""
        if ids.size and (ids[0] < 0 or ids[-1] >= size):
            mismatch = f"topic token ids span [{ids[0]}, {ids[-1]}] but the logit vector has {size} entries"
        grid = _flat_ids(ids, rows, size).reshape(rows, ids.size)

        def rewrite(x: np.ndarray) -> np.ndarray:
            if len(x) > rows:
                raise ValueError(f"a block of {len(x)} rows, but the rewrite is bound for at most {rows}")
            if x.shape[1] != size:
                raise VocabularyMismatchError(f"logit rows have {x.shape[1]} entries but the rewrite is bound for {size}")
            if mismatch:
                raise VocabularyMismatchError(mismatch)
            if ids.size == 0:
                return x
            at = grid[: len(x)]
            values = x.take(at)
            if config.method == "constant_shift":
                values += config.c
            elif config.method == "factor_scaling":
                np.multiply(values, config.alpha, out=values, where=values > -np.inf)  # a mask times 0 is no NaN
            else:
                # Each row's softmax, divided only at the topic ids: the same quotients as ``softmax(x)``. At a theta
                # of 0 every probability qualifies, so every topic id is raised but a masked (-inf) one. A fully
                # masked row's max is the lowest double, not -inf, and its sum of 0 becomes 1 (a row's sum is at
                # least the 1 at its max), so its quotients are 0 and nothing computes -inf - -inf or 0 / 0.
                top = x.max(axis=1, keepdims=True, initial=_LOWEST)
                e = x - top
                np.exp(e, out=e)
                sums = np.maximum(e.sum(axis=1, keepdims=True), 1.0)
                raised = e.take(at) / sums >= config.theta if config.theta else values > -np.inf
                np.copyto(values, top + config.beta, where=raised)
            if not math.isfinite(values.sum()):  # rare: a mask, a NaN or +inf, an overflow, or a sum that overflows
                if not (x < np.inf).all():
                    raise NonFiniteLogitsError.in_block(x)
                if not ((x.take(at) == -np.inf) | np.isfinite(values)).all():  # an overflow must not mask a token
                    raise ValueError(f"{config.method}: a rewritten topic logit is not finite")
            x.put(at, values)
            return x

        return rewrite


def build_chain(config: ReweightConfig, topic: object) -> ProcessorChain:
    """Compile a condition's step once, sorting the topic ids; method "none" is the identity."""
    if config.method == "none":
        return ProcessorChain()
    return ProcessorChain(config, _sorted_ids(topic))
