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
and every method goes through the rewrite that ``_bind`` returns, which
rewrites an (n, V) block, one logit vector per row, in place. A decode binds
its chain once (``ProcessorChain.bind``), so the id range check and the
ids' flat indices are paid once, not per step; ``_bind`` lists what each
step still checks. The public functions and ``ProcessorChain.apply``
bind for the one vector they are given, copy it once and never mutate
their input, which must be finite. A decode's bound rewrite instead takes
the provider's -inf as a mask, which every method keeps, and reports a NaN
or +inf that it meets as ``NonFiniteLogitsError``.
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


def _bind(ids: np.ndarray, config: ReweightConfig, rows: int, size: int) -> Callable[[np.ndarray], np.ndarray]:
    """The one reweighting step, bound to blocks of at most ``rows`` rows of ``size`` logits.

    ``ids`` must be sorted and unique, and empty for method "none". Binding
    checks them against ``size`` and lays out their flat indices for
    ``rows`` rows, once. The returned rewrite takes a float64 (n, size)
    block with n <= rows that the caller owns, rewrites the topic ids of
    every row in place, as if each row were alone, and returns it. The
    values are computed from the original rows, so threshold selection does
    not depend on token order; its comparison against theta is an exact >=
    with no epsilon, against each row's own softmax.

    An input entry of -inf is a mask and stays -inf under every method, even
    where the method would move it (a factor alpha <= 0, a threshold theta
    of 0). The rewrite reads no entry it does not rewrite, so it does not
    scan the block for NaN or +inf: a NaN or +inf elsewhere passes through
    unchanged for the step's selection to report. Every check runs before
    the first write, in this order: the block has at most ``rows`` rows, its
    rows have ``size`` entries, and the ids fit them (a mismatch found when
    binding is raised here). Then, only if a rewritten value is not finite,
    which a mask, a NaN or +inf at a topic id or in a threshold row's max,
    or an overflow makes it: a block that holds NaN or +inf raises
    ``NonFiniteLogitsError``, and a value that is not finite where its input
    was not -inf raises ValueError.
    """
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
            values *= config.alpha
        else:
            # Each row's softmax, divided only at the topic ids: the same quotients as ``softmax(x)``. At a theta
            # of 0 every probability qualifies, so every topic id is raised but a masked (-inf) one.
            top = x.max(axis=1, keepdims=True)
            e = x - top
            np.exp(e, out=e)
            raised = e.take(at) / e.sum(axis=1, keepdims=True) >= config.theta if config.theta else values > -np.inf
            np.copyto(values, top + config.beta, where=raised)
        if not math.isfinite(values.sum()):  # rare: a mask, a NaN or +inf, an overflow, or a sum that overflows
            if not (x < np.inf).all():
                raise NonFiniteLogitsError.in_block(x)
            masked = x.take(at) == -np.inf
            if not (masked | np.isfinite(values)).all():  # an overflow must not mask tokens silently
                raise ValueError(f"{config.method}: a rewritten topic logit is not finite")
            values[masked] = -np.inf
        x.put(at, values)
        return x

    return rewrite


def _rewritten(scores: LogitVector, ids: np.ndarray, config: ReweightConfig) -> np.ndarray:
    """A rewritten copy of the one-dimensional, finite vector ``scores``: the one-row case of ``_bind``."""
    x = np.array(scores, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("logit vector must be one-dimensional")
    if not np.isfinite(x).all():
        raise ValueError("logit vector must be finite before reweighting")
    _bind(ids, config, 1, x.size)(x[None])
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

    def bind(self, rows: int, size: int) -> Callable[[np.ndarray], np.ndarray]:
        """This step's in-place rewrite of float64 (n, size) blocks with n <= rows; ``_bind`` says what it checks when.

        Method "none" has no ids: its rewrite checks the block's shape and leaves the block as it is.
        """
        return _bind(self.ids, self.config, rows, size)


def build_chain(config: ReweightConfig, topic: object) -> ProcessorChain:
    """Compile a condition's step once, sorting the topic ids; method "none" is the identity."""
    if config.method == "none":
        return ProcessorChain()
    return ProcessorChain(config, _sorted_ids(topic))
