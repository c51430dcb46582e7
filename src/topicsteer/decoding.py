"""Token generation from any logits provider: greedy, sampling, beam search.

All strategies share one loop. It checks the prompt once; then, per live
hypothesis and step, it makes one provider call, one reweighting-chain call
and one token selection: provider logits -> reweighting chain -> EOS masking
while below the minimum length -> selection. Only the selection differs:
greedy takes the steered argmax; sampling and beam search first apply
top-k/top-p truncation, then sampling draws one token and beam search
proposes num_beams successors. Both work on the truncation's survivors (at
most top_k ids), not the whole vocabulary, but take the softmax normaliser
over the full-length truncated vector, so their probabilities are bit for
bit those of a full-vector softmax. Reweighting runs before truncation on
purpose: a boosted token must be able to re-enter the candidate set even if
the raw logits placed it outside the top-k. Greedy and sampling keep one
hypothesis, beam search num_beams, and ``trace=True`` records per-step
logits for all three.

Determinism contract: greedy and beam search are fully deterministic; ties
go to the lower token id, then the lower beam index. Sampling uses a PCG64
generator seeded from the config and consumes exactly one uniform double per
emitted token, mapped through the inverse CDF in token-id order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .models import (
    LogitsProvider,
    LogitVector,
    TokenSequence,
    Vocabulary,
    as_int,
    as_real,
    log_softmax,
    softmax,
)

__all__ = [
    "GenerationConfig",
    "GenerationResult",
    "StepRecord",
    "generate",
    "generate_beam",
    "generate_greedy",
    "generate_sample",
    "truncate_top_k_top_p",
]

STRATEGIES = ("greedy", "sample", "beam")
# Below this many entries one stable sort of the whole vector beats partial selection.
_PARTITION_MIN_SIZE = 1024


@dataclass(frozen=True)
class GenerationConfig:
    """Decoding strategy, truncation, and length window.

    min_new_tokens is enforced by masking EOS until that many tokens exist;
    max_new_tokens is a hard stop. seed only affects the "sample" strategy.
    """

    strategy: str = "greedy"
    top_k: int = 50
    top_p: float = 0.95
    num_beams: int = 4
    max_new_tokens: int = 90
    min_new_tokens: int = 80
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        for name in ("top_k", "num_beams", "max_new_tokens", "min_new_tokens", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        as_real(self.top_p, "top_p")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")
        if self.num_beams < 1:
            raise ValueError("num_beams must be >= 1")
        if self.min_new_tokens < 0 or self.max_new_tokens < 0:
            raise ValueError("token window must be non-negative")
        if self.min_new_tokens > self.max_new_tokens:
            raise ValueError("min_new_tokens must not exceed max_new_tokens")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class StepRecord:
    """Logit of the chosen token before and after reweighting, one per step."""

    step: int
    token_id: int
    raw_logit: float
    steered_logit: float


@dataclass(frozen=True)
class GenerationResult:
    """Generated continuation (new tokens only) and its cumulative log prob."""

    tokens: tuple[int, ...]
    log_prob: float
    step_records: tuple[StepRecord, ...] | None = None

    def to_record(self, vocab: Vocabulary, config: GenerationConfig) -> dict:
        """JSON-serializable record: tokens, decoded text, log prob, config."""
        return {
            "tokens": list(self.tokens),
            "text": vocab.decode(self.tokens),
            "log_prob": self.log_prob,
            "config": asdict(config),
        }


def truncate_top_k_top_p(scores: LogitVector, top_k: int, top_p: float) -> np.ndarray:
    """Mask everything outside the top-k, then outside the top-p nucleus.

    Survivor order is descending score with ties kept in token-id order: the
    first top_k ids of a stable descending sort, of which the non-finite ones
    are then dropped. A vector of more than max(1024, 4 * top_k) entries gets
    them by partial selection: ``np.partition`` finds the top_k-th best
    score, only the ids that score strictly better are sorted, and the
    lowest ids that tie with that score fill the remaining places. A smaller
    vector is cheaper to sort whole. Both paths keep the same ids in the same
    order. The nucleus is the smallest prefix of survivors whose renormalized
    softmax mass reaches top_p; the highest-scoring token always survives.
    Masked entries are set to -inf.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if not 0.0 < top_p <= 1.0:
        raise ValueError("top_p must lie in (0, 1]")
    x = np.asarray(scores, dtype=np.float64)
    k = min(top_k, x.size)
    if x.size <= max(_PARTITION_MIN_SIZE, 4 * k):
        order = np.argsort(-x, kind="stable")[:k]
    else:
        # The sort ranks NaN after -inf; here the two tie. That changes no
        # finite survivor: both rank after every finite score.
        y = -x
        y[np.isnan(y)] = np.inf
        boundary = np.partition(y, k - 1)[k - 1]
        better = np.flatnonzero(y < boundary)
        better = better[np.argsort(y[better], kind="stable")]
        ties = np.flatnonzero(y == boundary)[: k - better.size]
        order = np.concatenate((better, ties))
    kept = x[order]
    finite = np.isfinite(kept)
    if not finite.any():
        raise ValueError("cannot truncate a fully masked logit vector")
    order = order[finite]
    kept = kept[finite]
    if top_p < 1.0:
        probs = softmax(kept)
        cumulative = np.cumsum(probs)
        # token j survives if the mass strictly before it is < top_p
        nucleus = np.concatenate(([True], cumulative[:-1] < top_p))
        order = order[nucleus]
    out = np.full_like(x, -np.inf)
    out[order] = x[order]
    return out


# A selector maps one hypothesis's steered logits to [(token, log prob)]. It calls
# truncate_top_k_top_p and log_softmax as module globals, so tracers can wrap them.
def _greedy(steered: np.ndarray, config: GenerationConfig, rng) -> list[tuple[int, float]]:
    """Argmax of the untruncated logits; truncation never changes the argmax."""
    token = int(np.argmax(steered))
    return [(token, float(log_softmax(steered)[token]))]


def _survivors(truncated: np.ndarray):
    """The finite entries of a truncated vector and the softmax normaliser over all of it.

    Returns the survivor ids in id order, their scores, the max score, each
    survivor's ``exp(score - max)`` and the normaliser. The normaliser is
    summed over a full-length vector with zeros at the masked ids, so numpy's
    pairwise sum groups it exactly as ``softmax(truncated)`` does; a sum over
    the survivors alone can differ in the last bit.
    """
    ids = (truncated > -np.inf).nonzero()[0]
    kept = truncated[ids]
    top = kept.max()
    e = np.exp(kept - top)
    z = np.zeros(truncated.size)
    z[ids] = e
    return ids, kept, top, e, z.sum()


def _sample(steered: np.ndarray, config: GenerationConfig, rng) -> list[tuple[int, float]]:
    """Inverse-CDF draw over the survivors in token-id order; zero-probability entries can't win.

    Bit for bit the draw over ``softmax`` of the whole truncated vector: the
    masked entries add exact zeros to the cumulative sum.
    """
    ids, _, _, e, total = _survivors(truncate_top_k_top_p(steered, config.top_k, config.top_p))
    probs = e / total
    index = int(probs.cumsum().searchsorted(rng.random(), side="right"))
    if index >= probs.size:
        index = int(np.flatnonzero(probs > 0.0)[-1])
    return [(int(ids[index]), math.log(probs[index]))]


def _beam(steered: np.ndarray, config: GenerationConfig, rng) -> list[tuple[int, float]]:
    """The num_beams most likely truncated successors, lower id first on ties.

    Log probabilities are taken over the survivors only, with the full-length
    normaliser, so they equal ``log_softmax`` of the whole truncated vector.
    """
    ids, kept, top, _, total = _survivors(truncate_top_k_top_p(steered, config.top_k, config.top_p))
    log_probs = kept - (top + math.log(total))
    finite = np.isfinite(log_probs)  # a survivor far below the max can overflow to -inf
    ids, log_probs = ids[finite], log_probs[finite]
    best = (-log_probs).argsort(kind="stable")[: config.num_beams]
    return [(int(ids[i]), float(log_probs[i])) for i in best]


_SELECTORS = {"greedy": _greedy, "sample": _sample, "beam": _beam}


class _PrefixStates:
    """The incremental half for a provider that has only ``next_logits``.

    A state is the whole prefix as a list; ``advance`` returns a longer copy.
    """

    def __init__(self, model: LogitsProvider) -> None:
        self.model = model

    def start(self, prefix: TokenSequence) -> list[int]:
        ids = self.model.vocabulary.validate_ids(prefix)
        if not ids:
            raise ValueError("prefix must be non-empty")
        return ids

    def advance(self, state: list[int], token: int) -> list[int]:
        return state + [token]

    def logits(self, state: list[int]) -> LogitVector:
        return self.model.next_logits(state)


def _tokens(chain: tuple) -> tuple[int, ...]:
    """Tokens of a ``(token, parent chain)`` chain, oldest first."""
    tokens = []
    while chain:
        token, chain = chain
        tokens.append(token)
    return tuple(reversed(tokens))


def _decode(
    model: LogitsProvider, prefix: TokenSequence, chain, config: GenerationConfig, trace: bool, strategy: str
) -> GenerationResult:
    """The one decoding loop; ``strategy`` picks the selector and the width.

    The provider's incremental half checks the prompt once (``start``); each
    kept hypothesis then advances its own state by one token. A provider
    with only ``next_logits`` is driven through ``_PrefixStates``, whose
    state is the whole prefix. A hypothesis holds its state and its new
    tokens as a ``(token, parent)`` chain, so extending one costs O(1) in
    the prefix length; the tokens are listed once, at the end.

    Each step keeps the global top ``width`` (1, or num_beams for beam
    search) of all live hypotheses' candidates, ranked by cumulative log
    probability, ties to the lower token id, then the lower source index.
    A hypothesis that emits EOS is finished and never advanced, but it takes
    one of the ``width`` slots of the step it ends in: the next step extends
    one fewer live hypothesis per hypothesis just finished, and no extra
    candidates refill those slots. Returns the best finished hypothesis (the
    earliest on ties), or the best live one if max_new_tokens cuts it off.
    """
    if config.strategy != strategy:
        raise ValueError(f"config.strategy is {config.strategy!r}, expected {strategy!r}")
    select = _SELECTORS[strategy]
    width = config.num_beams if strategy == "beam" else 1
    rng = np.random.Generator(np.random.PCG64(config.seed)) if strategy == "sample" else None
    provider = model if hasattr(model, "start") else _PrefixStates(model)
    eos = model.vocabulary.eos_id
    # (cumulative log prob, provider state, (token, parent) chain, step records)
    live = [(0.0, provider.start(prefix), (), ())]
    done = []
    for step in range(config.max_new_tokens):
        candidates, logits = [], []  # candidates: (-cumulative, token, source index)
        for index, (cumulative, state, _, _) in enumerate(live):
            raw = provider.logits(state)
            steered = raw.copy() if chain is None else chain.apply(raw)
            if step < config.min_new_tokens:
                steered[eos] = -np.inf
            logits.append((raw, steered))
            for token, log_prob in select(steered, config, rng):
                candidates.append((-(cumulative + log_prob), token, index))
        candidates.sort()
        extended = []
        for score, token, index in candidates[:width]:
            _, state, tokens, records = live[index]
            if trace:
                raw, steered = logits[index]
                records += (StepRecord(step, token, float(raw[token]), float(steered[token])),)
            if token == eos:
                done.append((-score, None, (token, tokens), records))
            else:
                extended.append((-score, provider.advance(state, token), (token, tokens), records))
        live = extended
        if not live:
            break
    cumulative, _, tokens, records = max(done or live, key=lambda hypothesis: hypothesis[0])
    return GenerationResult(_tokens(tokens), cumulative, records if trace else None)


def generate_greedy(
    model: LogitsProvider,
    prefix: TokenSequence,
    chain=None,
    config: GenerationConfig | None = None,
    trace: bool = False,
) -> GenerationResult:
    """Deterministic argmax decoding over post-chain logits.

    Truncation is skipped: the argmax is invariant under it. Ties resolve to
    the lowest token id.
    """
    return _decode(model, prefix, chain, config or GenerationConfig(strategy="greedy"), trace, "greedy")


def generate_sample(
    model: LogitsProvider,
    prefix: TokenSequence,
    chain=None,
    config: GenerationConfig | None = None,
    trace: bool = False,
) -> GenerationResult:
    """Seeded top-k/top-p sampling; reproducible for a fixed seed."""
    return _decode(model, prefix, chain, config or GenerationConfig(strategy="sample"), trace, "sample")


def generate_beam(
    model: LogitsProvider,
    prefix: TokenSequence,
    chain=None,
    config: GenerationConfig | None = None,
    trace: bool = False,
) -> GenerationResult:
    """Beam search over post-chain, post-truncation log probabilities.

    Each live beam proposes its top num_beams successors and the global top
    num_beams candidates are retained; a beam that emits EOS is finished and
    uses up its slot. No length normalization is applied. ``_decode`` states
    the ranking, tie and width rules.
    """
    return _decode(model, prefix, chain, config or GenerationConfig(strategy="beam"), trace, "beam")


def generate(
    model: LogitsProvider,
    prefix: TokenSequence,
    chain=None,
    config: GenerationConfig | None = None,
    trace: bool = False,
) -> GenerationResult:
    """Dispatch to the generator selected by config.strategy."""
    config = config or GenerationConfig()
    if config.strategy == "greedy":
        return generate_greedy(model, prefix, chain, config, trace)
    if config.strategy == "sample":
        return generate_sample(model, prefix, chain, config, trace)
    return generate_beam(model, prefix, chain, config, trace)
