"""Token generation from any logits provider: greedy, sampling, beam search.

All strategies share one loop. Per live hypothesis and step it makes one
provider call, one reweighting-chain call and one token selection: provider
logits -> reweighting chain -> EOS masking while below the minimum length ->
selection. Only the selection differs: greedy takes the steered argmax;
sampling and beam search first apply top-k/top-p truncation, then sampling
draws one token and beam search proposes num_beams successors. Reweighting
runs before truncation on purpose: a boosted token must be able to re-enter
the candidate set even if the raw logits placed it outside the top-k.
Greedy and sampling keep one hypothesis, beam search num_beams, and
``trace=True`` records per-step logits for all three.

Determinism contract: greedy and beam search are fully deterministic; ties
go to the lower token id, then the lower beam index. Sampling uses a PCG64
generator seeded from the config and consumes exactly one uniform double per
emitted token, mapped through the inverse CDF in token-id order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .models import LogitsProvider, LogitVector, TokenSequence, Vocabulary, log_softmax, softmax

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

    def to_record(self, vocab: Vocabulary, config: GenerationConfig | None = None) -> dict:
        """JSON-serializable record: tokens, decoded text, log prob, config."""
        record = {
            "tokens": list(self.tokens),
            "text": vocab.decode(self.tokens),
            "log_prob": self.log_prob,
        }
        if config is not None:
            record["config"] = asdict(config)
        return record


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
# truncate_top_k_top_p, softmax and log_softmax as module globals, so tracers can wrap them.
def _greedy(steered: np.ndarray, config: GenerationConfig, rng) -> list[tuple[int, float]]:
    """Argmax of the untruncated logits; truncation never changes the argmax."""
    token = int(np.argmax(steered))
    return [(token, float(log_softmax(steered)[token]))]


def _sample(steered: np.ndarray, config: GenerationConfig, rng) -> list[tuple[int, float]]:
    """Inverse-CDF draw in token-id order; zero-probability entries can't win."""
    probs = softmax(truncate_top_k_top_p(steered, config.top_k, config.top_p))
    token = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    if token >= probs.size:
        token = int(np.flatnonzero(probs > 0.0)[-1])
    return [(token, math.log(probs[token]))]


def _beam(steered: np.ndarray, config: GenerationConfig, rng) -> list[tuple[int, float]]:
    """The num_beams most likely truncated successors, lower id first on ties."""
    log_probs = log_softmax(truncate_top_k_top_p(steered, config.top_k, config.top_p))
    finite = np.flatnonzero(np.isfinite(log_probs))
    best = finite[np.argsort(-log_probs[finite], kind="stable")][: config.num_beams]
    return [(int(token), float(log_probs[token])) for token in best]


_SELECTORS = {"greedy": _greedy, "sample": _sample, "beam": _beam}


def _decode(
    model: LogitsProvider, prefix: TokenSequence, chain, config: GenerationConfig, trace: bool, strategy: str
) -> GenerationResult:
    """The one decoding loop; ``strategy`` picks the selector and the width.

    Each step keeps the global top ``width`` (1, or num_beams for beam
    search) of all live hypotheses' candidates, ranked by cumulative log
    probability, ties to the lower token id, then the lower source index.
    A hypothesis that emits EOS is finished and never extended, but it takes
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
    base = [int(t) for t in prefix]
    if not base:
        raise ValueError("prefix must be non-empty")
    model.vocabulary.validate_ids(base)
    eos = model.vocabulary.eos_id
    live = [(0.0, base, ())]  # (cumulative log prob, prefix + new tokens, step records)
    done = []
    for step in range(config.max_new_tokens):
        candidates, logits = [], []  # candidates: (-cumulative, token, source index)
        for index, (cumulative, seq, _) in enumerate(live):
            raw = model.next_logits(seq)
            steered = raw.copy() if chain is None else chain.apply(raw)
            if step < config.min_new_tokens:
                steered[eos] = -np.inf
            logits.append((raw, steered))
            for token, log_prob in select(steered, config, rng):
                candidates.append((-(cumulative + log_prob), token, index))
        candidates.sort()
        extended = []
        for score, token, index in candidates[:width]:
            _, seq, records = live[index]
            if trace:
                raw, steered = logits[index]
                records += (StepRecord(step, token, float(raw[token]), float(steered[token])),)
            (done if token == eos else extended).append((-score, seq + [token], records))
        live = extended
        if not live:
            break
    cumulative, seq, records = max(done or live, key=lambda hypothesis: hypothesis[0])
    return GenerationResult(tuple(seq[len(base):]), cumulative, records if trace else None)


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
