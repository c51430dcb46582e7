"""Token generation from any logits provider: greedy, sampling, beam search.

All strategies share one loop. It checks the prompt once; then each step
works on one (n, V) block that holds the logits of the n live hypotheses (1
for greedy and sampling, up to num_beams for beam search): one
``logits_many`` call for the block -> one reweighting-chain rewrite of the
block, in place, by the chain the decode bound once when it started -> EOS
column masked while below the minimum length -> one selection. Only the
selection differs: greedy takes the steered argmax; sampling and beam search
first apply row-wise top-k/top-p truncation, the one survivor step. It hands
over each row's surviving ids (at most top_k) in survivor order, their flat
indices into the block, their scores and one exp(kept - top) per survivor;
those weights give the nucleus mass, the sampling weights and the beam
normaliser, so a step exponentiates each survivor once. Sampling then draws
one token. Beam search keeps the global top num_beams of each row's
num_beams best successors, which are the row's first num_beams survivors:
log probabilities never increase along a row, and where rounding ties them
across that boundary, the lowest ids of the tie run fill it. Both sum the
normaliser over the full-length truncated row (the weights put into a zero
row), so their probabilities are bit for bit those of a full-vector softmax
of that row. Each decode call owns one workspace of (width, V) blocks,
allocated when it starts and freed when it returns: the zero-filled rows
those normalisers are summed over, and, for a provider with only
``next_logits``, the block its rows are copied into, so no step allocates
either. Nothing is cached across calls. Reweighting runs before truncation
on purpose: a boosted token must be able to re-enter the candidate set even
if the raw logits placed it outside the top-k. ``trace=True`` records
per-step logits for all three strategies.

Non-finite logits: a provider's -inf masks a token under every method and
strategy, like the engine's own EOS mask. A block holding NaN or +inf fails
the decode with ``NonFiniteLogitsError``, naming the step and the row, and
no step scans the block for it. The work each step already does finds it:
greedy's argmax lands on the first NaN, else on a +inf; truncation's sort
puts +inf first and NaN last, and above the size rule the block-max bound
turns NaN, so only the entries past its last block need a look; the EOS mask
subtracts inf, which keeps a NaN or +inf visible; and the chain's rewrite
reports one that reaches a rewritten value (``reweight._bind``).

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
    NonFiniteLogitsError,
    TokenSequence,
    Vocabulary,
    as_int,
    as_real,
    flat_ids,
    log_softmax,  # noqa: F401  (no step calls it or softmax; tracers wrap both names)
    softmax,  # noqa: F401
)
from .reweight import ProcessorChain

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
# At or below this many entries (or 4 * top_k) one stable sort of a whole row beats the block-max bound.
_BOUND_MIN_SIZE = 1024
_MASKED = "every token of a logit vector is masked"


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
        object.__setattr__(self, "top_p", as_real(self.top_p, "top_p"))
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

    The one-row case of ``_truncate``, which states the survivor rules.
    ``scores`` must be one-dimensional, ``top_k`` an integer and ``top_p`` a
    real number, checked as ``GenerationConfig`` checks them. Masked entries
    are set to -inf; a NaN or +inf in ``scores`` raises
    ``NonFiniteLogitsError``.
    """
    config = GenerationConfig("sample", top_k, top_p)
    x = np.asarray(scores, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("logit vector must be one-dimensional")
    ids, _, kept, _ = _truncate(x[None], config.top_k, config.top_p)
    out = np.full_like(x, -np.inf)
    out[ids[0]] = kept[0]
    return out


def _truncate(x: np.ndarray, top_k: int, top_p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise top-k/top-p truncation of a float64 (n, V) block: the one survivor step of sampling and beam search.

    Returns ``(ids, flat, kept, weights)``, each (n, min(top_k, V)): each
    row's top-k ids in survivor order, the same ids as indices into the
    flattened block, their scores (-inf where an id does not survive) and
    their weights ``exp(kept - top)`` (0 where an id does not survive), with
    ``top`` the row's highest surviving score.
    Survivor order is descending score with ties kept in token-id order: the
    first top_k ids of a stable descending sort, of which the masked (-inf)
    ones are then dropped. Rows of at most max(1024, 4 * top_k) entries are
    cheaper to sort whole. A longer row is first cut by a block-max bound:
    its first k * (V // k) entries form k blocks of V // k, and the bound is
    the smallest block maximum. Each block holds an entry at or above the
    bound, so at least k entries reach it; hence every top_k survivor is at
    or above it, and every entry below it ranks after them. The candidates,
    the entries at or above the bound in id order, are sorted stably. If
    more than 4 * top_k reach the bound, a partition of the candidates finds
    the top_k-th best score, only those strictly better are sorted, and the
    lowest ids that tie with it fill the remaining places. Every path keeps
    the same ids in the same order.

    A block holding NaN or +inf raises ``NonFiniteLogitsError``, found by
    work the cut does anyway: a +inf leads its row's survivors; a NaN sorts
    last in a whole-row sort, and above the size rule it makes the bound NaN
    unless it lies past the last block, where the V % k entries are looked
    at.

    The nucleus is the smallest prefix of a row's survivors whose
    renormalized mass reaches top_p: entry j survives if the mass strictly
    before it is < top_p, so the highest-scoring token always survives. The
    mass is the cumulative sum of the weights over their sum: the
    subtraction, exp, sum, division and cumsum of a ``softmax`` of the
    survivors, so the weights that sampling and beam search normalise are
    the ones the nucleus was cut by. When every row keeps all k survivors
    finite, the whole block is cut at once; a block with a masked survivor
    is cut row by row, each row over its finite survivors only, which lead
    it.
    """
    rows, size = x.shape
    k = min(top_k, size)
    if size <= max(_BOUND_MIN_SIZE, 4 * k):
        order = (-x).argsort(axis=1, kind="stable")
        ids = order[:, :k]
        if any(math.isnan(x[row, last]) for row, last in enumerate(order[:, -1].tolist())):
            raise NonFiniteLogitsError.in_block(x)
    else:
        ids = np.empty((rows, k), dtype=np.intp)
        blocks_end = size - size % k
        bound = x[:, :blocks_end].reshape(rows, k, -1).max(axis=2).min(axis=1)
        if np.isnan(bound).any() or np.isnan(x[:, blocks_end:]).any():
            raise NonFiniteLogitsError.in_block(x)
        offsets = np.arange(0, (rows + 1) * size, size)
        hits = (x >= bound[:, None]).ravel().nonzero()[0]  # flat indices, in id order per row
        ends = hits.searchsorted(offsets)
        for out, row, offset, start, end in zip(ids, x, offsets.tolist(), ends, ends[1:]):
            top = hits[start:end] - offset
            scores = row[top]
            if top.size <= 4 * k:
                out[:] = top[(-scores).argsort(kind="stable")[:k]]
                continue
            ranked = -scores
            ranked.partition(k - 1)
            boundary = -ranked[k - 1]  # the top_k-th best score
            better = top[scores > boundary]
            out[: better.size] = better[(-row[better]).argsort(kind="stable")]
            out[better.size:] = top[scores == boundary][: k - better.size]
    flat = flat_ids(ids, rows, size)
    kept = x.take(flat)
    finite = np.isfinite(kept)
    if k and finite.all():  # the usual case: each row's first survivor is its top
        weights = kept - kept[:, :1]
        np.exp(weights, out=weights)
        if top_p < 1.0:
            cut = (weights / weights.sum(axis=1, keepdims=True)).cumsum(axis=1)[:, :-1] >= top_p
            weights[:, 1:][cut] = 0.0
            kept[:, 1:][cut] = -np.inf
        return ids, flat, kept, weights
    if not (kept[:, :1] < np.inf).all():
        raise NonFiniteLogitsError.in_block(x)
    weights = np.zeros_like(kept)
    for row, out, count in zip(kept, weights, finite.sum(axis=1).tolist()):
        if not count:
            raise ValueError(_MASKED)
        exps = np.exp(row[:count] - row[0])
        if top_p < 1.0:
            count = 1 + int((exps / exps.sum()).cumsum()[:-1].searchsorted(top_p))
            row[count:] = -np.inf
        out[:count] = exps[:count]
    return ids, flat, kept, weights


def _normalisers(flat: np.ndarray, weights: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Per row of ``zeros``, the sum of ``weights`` placed at the flat indices ``flat`` in its all-zero rows.

    ``zeros`` is a view of the decode's zero workspace block: (V,) for the
    ids of one row, which gives a scalar, or the first n rows for the (n, k)
    flat indices of ``_truncate``, which gives n sums. The weights are put
    in, each row is summed and zeros are put back, so the block is all zeros
    again on return. Summed over the full length, numpy's pairwise sum
    groups the weights exactly as a softmax of the whole truncated row does;
    a sum over the survivors alone can differ in the last bit.
    """
    zeros.put(flat, weights)
    sums = zeros.sum(axis=-1)
    zeros.put(flat, 0.0)
    return sums


# A selector maps the steered (n, V) block of a step and the live hypotheses
# (row i is hypothesis i; entry 0 of each is its cumulative log prob) to the
# kept successors, best first, as (cumulative log prob, token, source row):
# one for greedy and sampling, at most num_beams for beam search. ``zeros``
# is the decode's all-zero workspace block for ``_normalisers``.
def _greedy(steered: np.ndarray, live: list, config: GenerationConfig, rng, zeros: np.ndarray) -> tuple:
    """Argmax of the untruncated logits; truncation never changes the argmax.

    Its log probability is ``log_softmax(row)[token]`` bit for bit, without
    the full-length row: the argmax entry is the row's max. The argmax is
    also the step's check: it lands on the row's first NaN, else on a +inf.
    """
    row = steered[0]
    token = int(row.argmax())
    top = float(row[token])
    if not -math.inf < top < math.inf:
        raise ValueError(_MASKED) if top == -math.inf else NonFiniteLogitsError(0)
    return ((live[0][0] + (top - (top + math.log(np.exp(row - top).sum()))), token, 0),)


def _sample(steered: np.ndarray, live: list, config: GenerationConfig, rng, zeros: np.ndarray) -> tuple:
    """Inverse-CDF draw over the top-k ids in token-id order; zero-probability entries can't win.

    Bit for bit the draw over ``softmax`` of the whole truncated vector:
    the truncation's weights are that softmax's exps, the masked entries
    add exact zeros to the cumulative sum, and the normaliser is summed over
    the full length.
    """
    ids, _, _, weights = _truncate(steered, config.top_k, config.top_p)
    by_id = ids[0].argsort()
    ids, weights = ids[0][by_id], weights[0][by_id]
    probs = weights / _normalisers(ids, weights, zeros[0])
    index = int(probs.cumsum().searchsorted(rng.random(), side="right"))
    if index >= probs.size:
        index = int((probs > 0.0).nonzero()[0][-1])
    return ((live[0][0] + math.log(probs[index]), int(ids[index]), 0),)


def _beam(steered: np.ndarray, live: list, config: GenerationConfig, rng, zeros: np.ndarray) -> list:
    """Each row's num_beams most likely truncated successors, then the global top num_beams.

    A row ranks its successors by log probability, lower id first on ties.
    Log probabilities use each row's full-length normaliser, so they equal
    ``log_softmax`` of the whole truncated row. The global rank is by
    cumulative log probability, then the lower token id, then the lower row.

    A row's finite survivors lead it in survivor order, and their log
    probabilities never increase, so its best num_beams come first. Ties are
    contiguous; where rounding ties log probabilities across the num_beams
    boundary, the lowest ids of that tie run fill it.
    """
    ids, flat, kept, weights = _truncate(steered, config.top_k, config.top_p)
    beams = config.num_beams
    norms = _normalisers(flat, weights, zeros[: len(ids)]).tolist()
    candidates = []  # (-cumulative log prob, token, source row)
    heads = zip(live, kept[:, : beams + 1].tolist(), ids[:, : beams + 1].tolist(), norms)
    for source, (hypothesis, head, head_ids, norm) in enumerate(heads):
        lse = head[0] + math.log(norm)
        # -inf where masked, or where a survivor far below the top overflows
        log_probs = [score - lse for score in head]
        if len(log_probs) > beams and log_probs[beams - 1] == log_probs[beams] > -math.inf:
            # a tie across the boundary: the whole tie run competes for its places, lowest ids first
            tie = log_probs[beams]
            log_probs = [score - lse for score in kept[source].tolist()]
            head_ids = ids[source].tolist()
            first = log_probs.index(tie)
            head_ids[first:beams] = sorted(head_ids[first: first + log_probs.count(tie)])[: beams - first]
        for log_prob, token in zip(log_probs[:beams], head_ids):
            if log_prob > -math.inf:
                candidates.append((-(hypothesis[0] + log_prob), token, source))
    candidates.sort()
    return [(-total, token, source) for total, token, source in candidates[:beams]]


_SELECTORS = {"greedy": _greedy, "sample": _sample, "beam": _beam}


class _PrefixStates:
    """The incremental half for a provider that has only ``next_logits``.

    A state is the whole prefix as a list; ``advance`` returns a longer copy.
    ``logits_many`` copies each state's ``next_logits`` into the first n rows
    of a (width, V) block that the adapter allocates once per decode, and
    returns those rows; the step owns them until the next step overwrites
    them. Each row is copied as soon as it is made, so at large V no more
    than one of them is alive next to the block.
    """

    def __init__(self, model: LogitsProvider, width: int) -> None:
        self.model = model
        self.block = np.empty((width, model.vocabulary.size))

    def start(self, prefix: TokenSequence) -> list[int]:
        ids = self.model.vocabulary.validate_ids(prefix)
        if not ids:
            raise ValueError("prefix must be non-empty")
        return ids

    def advance(self, state: list[int], token: int) -> list[int]:
        return state + [token]

    def logits_many(self, states: list[list[int]]) -> np.ndarray:
        block = self.block[: len(states)]
        for row, state in zip(block, states):
            row[:] = self.model.next_logits(state)
        return block


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
    state is the whole prefix; one with ``start`` but no ``logits_many`` is
    rejected (TypeError) before the prompt is read. A hypothesis holds its
    state and its new tokens as a ``(token, parent)`` chain, so extending
    one costs O(1) in the prefix length; the tokens are listed once, at the
    end.

    The chain (method "none" when ``chain`` is None) is bound once, after
    the prompt check, for blocks of up to ``width`` rows
    (``ProcessorChain.bind``): its topic ids are checked against V and their
    flat indices laid out then, not on every step.
    A step works on one (n, V) block, row i the logits of live hypothesis i:
    one ``logits_many`` call, one rewrite by the bound chain in place (on a
    copy when tracing, which keeps the raw logits; ``reweight._bind`` says
    what the rewrite checks), the EOS column masked while below the minimum
    length, and one selection. A NaN or +inf that the step meets fails the
    decode with ``NonFiniteLogitsError`` naming the step and the row.
    It keeps the global top ``width`` (1, or num_beams for beam search) of
    all rows' candidates, ranked by cumulative log probability, ties to the
    lower token id, then the lower source row. A hypothesis that emits EOS
    is finished and never advanced, but it takes one of the ``width`` slots
    of the step it ends in: the next step extends one fewer live hypothesis
    per hypothesis just finished, and no extra candidates refill those
    slots. Returns the best finished hypothesis (the earliest on ties), or
    the best live one if max_new_tokens cuts it off.
    """
    if config.strategy != strategy:
        raise ValueError(f"config.strategy is {config.strategy!r}, expected {strategy!r}")
    select = _SELECTORS[strategy]
    rng = np.random.Generator(np.random.PCG64(config.seed)) if strategy == "sample" else None
    width = config.num_beams if strategy == "beam" else 1
    provider = model if hasattr(model, "start") else _PrefixStates(model, width)
    if not hasattr(provider, "logits_many"):
        raise TypeError(f"{type(model).__name__} has start but no logits_many")
    size = model.vocabulary.size
    zeros = np.zeros((width, size))  # the call's zero workspace block for the normalisers
    eos = model.vocabulary.eos_id
    # (cumulative log prob, provider state, (token, parent) chain, step records)
    live = [(0.0, provider.start(prefix), (), ())]
    rewrite = (chain or ProcessorChain()).bind(width, size)
    done = []
    try:
        for step in range(config.max_new_tokens):
            raw = provider.logits_many([state for _, state, _, _ in live])
            steered = raw.copy() if trace else raw
            rewrite(steered)
            if step < config.min_new_tokens:
                for row in range(len(live)):  # a finite logit or -inf becomes -inf; NaN and +inf turn NaN
                    steered[row, eos] -= math.inf
            extended = []
            for total, token, source in select(steered, live, config, rng, zeros):
                _, state, tokens, records = live[source]
                if trace:
                    records += (StepRecord(step, token, float(raw[source, token]), float(steered[source, token])),)
                if token == eos:
                    done.append((total, None, (token, tokens), records))
                else:
                    extended.append((total, provider.advance(state, token), (token, tokens), records))
            live = extended
            if not live:
                break
    except NonFiniteLogitsError as fault:
        raise NonFiniteLogitsError(fault.row, step) from None
    total, _, tokens, records = max(done or live, key=lambda hypothesis: hypothesis[0])
    return GenerationResult(_tokens(tokens), total, records if trace else None)


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
