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

``build_chain`` compiles a method and its sorted topic ids into a
``ProcessorChain``, whose ``bind`` is the one rewrite: it rewrites an (n, V)
block, one logit vector per row, in place. A decode binds its chain once, so
the id range check and the ids' flat indices are paid once, not per step.
``ProcessorChain.apply`` is its one-row case, and ``apply_reweight`` and the
three method functions go through it; they copy the vector they are given
and never mutate it. Every entry point keeps one rule for non-finite logits:
-inf is a mask, which every method keeps, and NaN or +inf raises
``NonFiniteLogitsError``. ``apply`` checks the whole vector for them; a bound
rewrite reports one where it meets it (``bind`` says where).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .models import LogitVector, NonFiniteLogitsError, as_int, as_real, flat_ids, softmax  # noqa: F401  (tracers wrap softmax)

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

    A chain also keeps the successors that the decodes made through it have
    computed, per provider object and successor settings, until the chain is
    dropped (``decoding._decode`` says what it keeps); a new chain keeps
    none. Equal provider states must therefore stand for equal logits for as
    long as a chain is reused with that provider. Where states are heavy (a
    key/value cache), build one chain per prompt, as ``cli generate`` does,
    to keep no more alive than one decode.
    """

    config: ReweightConfig = ReweightConfig()
    ids: np.ndarray = field(default_factory=lambda: _NO_IDS)
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    def apply(self, scores: LogitVector) -> np.ndarray:
        """A rewritten float64 copy of one logit vector: the one-row case of ``bind``.

        A vector that is not one-dimensional raises ValueError, and one that
        holds NaN or +inf anywhere raises ``NonFiniteLogitsError``; a -inf is
        a mask, as in a decode.
        """
        x = np.array(scores, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("logit vector must be one-dimensional")
        if not (x < np.inf).all():
            raise NonFiniteLogitsError()
        return self.bind(1, x.size)(x[None])[0]

    def bind(self, rows: int, size: int) -> Callable[[np.ndarray], np.ndarray]:
        """This step's rewrite, bound to blocks of at most ``rows`` rows of ``size`` logits.

        Binding checks the ids against ``size`` and lays out their flat
        indices for ``rows`` rows, once. The rewrite takes a float64 (n, size)
        block with n <= rows that the caller owns, rewrites the topic ids of
        every row in place, as if each row were alone (method "none" has no
        ids), and returns it. Values come from the original rows: threshold
        selection compares each row's own softmax with theta by an exact >=.

        A -inf entry is a mask and stays -inf under every method, even where
        the method would move it (alpha <= 0, theta = 0). The rewrite does
        not scan the block for NaN or +inf: one that no rewritten value reads
        passes through for the step's selection to report. Every check runs
        before the first write: the block has at most ``rows`` rows, its rows
        have ``size`` entries, and the ids fit them (a mismatch found when
        binding is raised here). Then, only if a rewritten value is not finite
        (a mask, a NaN or +inf at a topic id or in a threshold row's max, or
        an overflow): a block that holds NaN or +inf raises
        ``NonFiniteLogitsError``, and a value that is not finite where its
        input was not -inf raises ValueError.
        """
        ids, config = self.ids, self.config
        mismatch = ""
        if ids.size and (ids[0] < 0 or ids[-1] >= size):
            mismatch = f"topic token ids span [{ids[0]}, {ids[-1]}] but the logit vector has {size} entries"
        grid = flat_ids(ids, rows, size).reshape(rows, ids.size)

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
