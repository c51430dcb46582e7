"""Token generation from any logits provider: greedy, sampling, beam search.

All strategies share one loop. It checks the prompt once; then each step
looks up the provider states of the n live hypotheses (1 for greedy and
sampling, up to num_beams for beam search) in a memo that the reweighting
chain keeps. The states it has not met yet in the current EOS phase (masked
while below the minimum length, then unmasked) go through one (n, V) block:
one ``logits_many`` call -> one reweighting-chain rewrite of the block, in
place, by the chain the decode bound once when it started -> EOS column
masked while below the minimum length -> each row's successors, which the
memo keeps. A cheap pick over the live hypotheses' successors then ends the
step. A row's successors are a function of that row alone, so a state that
repeats (the shipped order-1 model's state is its last token) is stepped
once per phase, bit for bit as if every step recomputed it, and so is a
state that an earlier decode through the same chain, provider object and
successor settings met.

Only the successors and the pick differ: greedy takes the steered argmax
and its log probability, and the pick adds the cumulative log prob;
sampling and beam search first apply row-wise top-k/top-p truncation, the
one survivor step. It hands over each row's surviving ids (at most top_k)
in survivor order, their flat indices into the block, their scores and one
exp(kept - top) per survivor; those weights give the nucleus mass, the
sampling weights and the beam normaliser, so a step exponentiates each
survivor once. Sampling keeps the survivors' probabilities and cumulative
sum in token-id order, and its pick draws one token from them. Beam search
keeps each row's num_beams best successors, which are the row's first
num_beams survivors: log probabilities never increase along a row, and
where rounding ties them across that boundary, the lowest ids of the tie run
fill it; its pick is the global top num_beams. Both sum the normaliser over
the full-length truncated row (the weights put into a zero row), so their
probabilities are bit for bit those of a full-vector softmax of that row.
Each decode call owns one workspace of (width, V) blocks, allocated when it
starts and freed when it returns: the zero-filled rows those normalisers
are summed over, and, for a provider with only ``next_logits``, the block
its rows are copied into, so no step allocates either. The memo holds
successors, never whole rows. It is kept on the chain, per provider object
and successor settings (strategy, top_k, top_p, num_beams, trace), until the
chain is dropped, so equal states must stand for equal logits for as long as
a chain is reused with a provider; a decode without a chain starts an empty
one. Where states are heavy (a key/value cache), one chain per prompt, as
``cli generate`` builds, keeps no more alive than one decode does.
Reweighting runs before truncation on purpose: a boosted
token must be able to re-enter the candidate set even if the raw logits
placed it outside the top-k. ``trace=True`` records per-step logits for all
three strategies; the memo then also keeps the raw and steered logit at
each successor token.

Non-finite logits: a provider's -inf masks a token under every method and
strategy, like the engine's own EOS mask. A block holding NaN or +inf fails
the decode with ``NonFiniteLogitsError``, naming the step and the first live
row whose state holds it, and no step scans the block for it. The work each
step already does finds it: greedy's argmax lands on the first NaN, else on
a +inf; truncation's sort puts +inf first and NaN last, and above the size
rule the block-max bound turns NaN, so only the entries past its last block
need a look; the EOS mask subtracts inf, which keeps a NaN or +inf visible;
and the chain's rewrite reports one that reaches a rewritten value
(``ProcessorChain.bind``).

Determinism contract: greedy and beam search are fully deterministic; ties
go to the lower token id, then the lower beam index. Sampling uses a PCG64
generator seeded from the config and consumes exactly one uniform double per
emitted token, mapped through the inverse CDF in token-id order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator

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
from .reweight import ProcessorChain, VocabularyMismatchError

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
    ``NonFiniteLogitsError`` about the vector, naming no row.
    """
    config = GenerationConfig("sample", top_k, top_p)
    x = np.asarray(scores, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("logit vector must be one-dimensional")
    try:
        ids, _, kept, _ = _truncate(x[None], config.top_k, config.top_p)
    except NonFiniteLogitsError:
        raise NonFiniteLogitsError() from None
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
    or above it, and every entry below it ranks after them. A partition of
    the candidates, the entries at or above the bound in id order, finds the
    top_k-th best score; only those strictly better are sorted stably, and
    the lowest ids that tie with it fill the remaining places. Both paths
    keep the same ids in the same order.

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


# A strategy is a successors function and a pick. The successors function
# maps the steered, EOS-masked (n, V) block of the provider states that a
# decode has not yet seen in this EOS phase to each row's successors, a
# function of that row alone whose first entry lists its successor token ids;
# ``zeros`` is the decode's all-zero workspace block for ``_normalisers``. The
# pick maps the successors of the live hypotheses (row i is hypothesis i's;
# entry 0 of each hypothesis is its cumulative log prob) to the kept ones,
# best first, as (cumulative log prob, token, source row): one for greedy and
# sampling, at most num_beams for beam search.
def _greedy(steered: np.ndarray, config: GenerationConfig, zeros: np.ndarray) -> list:
    """The one row's argmax of the untruncated logits, as ([token], [log prob]); truncation never changes the argmax.

    Its log probability is ``log_softmax(row)[token]`` bit for bit, without
    the full-length row: the argmax entry is the row's max. The argmax is
    also the step's check: it lands on the row's first NaN, else on a +inf.
    """
    row = steered[0]
    token = int(row.argmax())
    top = float(row[token])
    if not -math.inf < top < math.inf:
        raise ValueError(_MASKED) if top == -math.inf else NonFiniteLogitsError(0)
    return [([token], [top - (top + math.log(np.exp(row - top).sum()))])]


def _sample(steered: np.ndarray, config: GenerationConfig, zeros: np.ndarray) -> list:
    """The one row's top-k ids in token-id order, with their probabilities and cumulative sum: three short arrays.

    Bit for bit the probabilities of ``softmax`` of the whole truncated
    vector: the truncation's weights are that softmax's exps, the masked
    entries add exact zeros to the cumulative sum, and the normaliser is
    summed over the full length.
    """
    ids, _, _, weights = _truncate(steered, config.top_k, config.top_p)
    by_id = ids[0].argsort()
    ids, weights = ids[0][by_id], weights[0][by_id]
    probs = weights / _normalisers(ids, weights, zeros[0])
    return [(ids, probs, probs.cumsum())]


def _draw(successors: list, live: list, config: GenerationConfig, rng) -> tuple:
    """Inverse-CDF draw of one uniform over the ids in token-id order; zero-probability entries can't win."""
    ids, probs, cdf = successors[0]
    index = int(cdf.searchsorted(rng.random(), side="right"))
    if index >= probs.size:  # past the last sum, which rounding can leave below 1
        index = int((probs > 0.0).nonzero()[0][-1])
    return ((live[0][0] + math.log(probs[index]), int(ids[index]), 0),)


def _beam(steered: np.ndarray, config: GenerationConfig, zeros: np.ndarray) -> Iterator[tuple]:
    """Each row's num_beams most likely truncated successors, as (tokens, log probs), best first, row by row.

    A row ranks its successors by log probability, lower id first on ties,
    and drops those whose log probability is -inf. Log probabilities use
    each row's full-length normaliser, so they equal ``log_softmax`` of the
    whole truncated row.

    A row's finite survivors lead it in survivor order, and their log
    probabilities never increase, so its best num_beams come first. Ties are
    contiguous; where rounding ties log probabilities across the num_beams
    boundary, the lowest ids of that tie run fill it.
    """
    ids, flat, kept, weights = _truncate(steered, config.top_k, config.top_p)
    beams = config.num_beams
    norms = _normalisers(flat, weights, zeros[: len(ids)]).tolist()
    heads = zip(kept[:, : beams + 1].tolist(), ids[:, : beams + 1].tolist(), norms)
    for row, (head, head_ids, norm) in enumerate(heads):
        lse = head[0] + math.log(norm)
        # -inf where masked, or where a survivor far below the top overflows
        log_probs = [score - lse for score in head]
        if len(log_probs) > beams and log_probs[beams - 1] == log_probs[beams] > -math.inf:
            # a tie across the boundary: the whole tie run competes for its places, lowest ids first
            tie = log_probs[beams]
            log_probs = [score - lse for score in kept[row].tolist()]
            head_ids = ids[row].tolist()
            first = log_probs.index(tie)
            head_ids[first:beams] = sorted(head_ids[first: first + log_probs.count(tie)])[: beams - first]
        count = sum(log_prob > -math.inf for log_prob in log_probs[:beams])  # the finite ones lead
        yield head_ids[:count], log_probs[:count]


def _best(successors: list, live: list, config: GenerationConfig, rng) -> list:
    """The global top num_beams of all rows' successors: by cumulative log prob, then lower token id, then lower row."""
    candidates = sorted([(-(hypothesis[0] + log_prob), token, source)
                         for source, (hypothesis, (tokens, log_probs)) in enumerate(zip(live, successors))
                         for token, log_prob in zip(tokens, log_probs)])
    return [(-total, token, source) for total, token, source in candidates[: config.num_beams]]


def _extend(successors: list, live: list, config: GenerationConfig, rng) -> tuple:
    """Greedy's pick: the one hypothesis extended by its one successor, ``successors[0] == ([token], [log prob])``."""
    return ((live[0][0] + successors[0][1][0], successors[0][0][0], 0),)


_SELECTORS = {"greedy": (_greedy, _extend), "sample": (_sample, _draw), "beam": (_beam, _best)}


class _PrefixStates:
    """The incremental half for a provider that has only ``next_logits``.

    A state is the prefix as two tuples, the prompt's ids and the tokens
    after it; ``advance`` returns a copy with one more token. No two live
    hypotheses share a prefix, so a decode never finds a state it has seen
    (a later decode of the same prompt through the same chain does), and
    every state of a decode shares one prompt tuple: the states that the
    chain keeps hold each decode's prompt once, not once per state. The
    chain's memo is keyed by the provider the caller passed, never by this
    adapter, so no block outlives its decode.
    ``logits_many`` copies each state's ``next_logits`` into the
    first n rows of a (width, V) block that the adapter allocates once per
    decode, and returns those rows; the step owns them until the next step
    overwrites them. A vector whose shape is not (V,) raises
    ``VocabularyMismatchError`` instead of broadcasting. Each row is copied
    as soon as it is made, so at large V no more than one of them is alive
    next to the block.
    """

    def __init__(self, model: LogitsProvider, width: int) -> None:
        self.model = model
        self.block = np.empty((width, model.vocabulary.size))

    def start(self, prefix: TokenSequence) -> tuple[tuple[int, ...], tuple[int, ...]]:
        ids = self.model.vocabulary.validate_ids(prefix)
        if not ids:
            raise ValueError("prefix must be non-empty")
        return tuple(ids), ()

    def advance(self, state: tuple, token: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return state[0], state[1] + (token,)

    def logits_many(self, states: list[tuple]) -> np.ndarray:
        block = self.block[: len(states)]
        for row, (prompt, tokens) in zip(block, states):
            logits = np.asarray(self.model.next_logits(prompt + tokens))
            if logits.shape != row.shape:  # numpy would broadcast a scalar or a 1-entry vector into the row
                raise VocabularyMismatchError(f"next_logits gave logits of shape {logits.shape} "
                                              f"but the vocabulary has {row.size} tokens")
            row[:] = logits
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
    """The one decoding loop; ``strategy`` picks the successors, the pick and the width.

    The provider's incremental half checks the prompt once (``start``); each
    kept hypothesis then advances its own state by one token. A provider
    with only ``next_logits`` is driven through ``_PrefixStates``, whose
    state is the prefix (prompt and new tokens); one with ``start`` but no
    ``logits_many`` is rejected (TypeError) before the prompt is read. A
    hypothesis holds its state and its new tokens as a ``(token, parent)``
    chain, so extending one costs O(1) in the prefix length; the tokens are
    listed once, at the end.

    The chain (method "none" when ``chain`` is None) is bound once, after
    the prompt check, for blocks of up to ``width`` rows
    (``ProcessorChain.bind``): its topic ids are checked against V and their
    flat indices laid out then, not on every step.
    A step looks up each live hypothesis's state in the memo of the current
    EOS phase. The chain keeps one per phase for each provider object and
    successor settings (strategy, top_k, top_p, num_beams, trace), and holds
    the provider, so its id is not reused while the entry lives; the seed
    and the length window are not in the key, since successors do not read
    the seed and the phase is what the window changes. The states it lacks,
    each once and in live order, form one (n, V) block: one ``logits_many``
    call (a block that is not a float64 numpy array raises TypeError, one
    without one row per state ValueError), one rewrite by the bound chain in
    place (on a copy when tracing, which keeps the raw logits;
    ``ProcessorChain.bind`` says what the rewrite checks), the EOS column
    masked while below the minimum length, and each row's successors, which
    the memo keeps (with the raw and steered logit at each successor token
    when tracing). A block that raises keeps nothing, since the rewrite and
    the successors functions raise before their first row, so every decode
    that meets its state fails alike. The chain keeps the memo until it is
    dropped: equal states must stand for equal logits for as long as the
    chain is reused with the provider, and heavy states (a key/value cache)
    call for one chain per prompt. A NaN or +inf
    that the step meets fails the decode with ``NonFiniteLogitsError``
    naming the step and the first live row whose state holds it. The pick
    then keeps the global top ``width`` (1, or num_beams for beam search) of
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
    expand, pick = _SELECTORS[strategy]
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
    chain = chain or ProcessorChain()
    rewrite = chain.bind(width, size)
    # Per EOS phase, state -> (its successors, {token: (raw, steered logit)} when tracing, else False). The
    # chain keeps both across decodes; its key holds the provider, whose id the entry keeps from being reused.
    _, masked, unmasked = chain._memo.setdefault(
        (id(model), strategy, config.top_k, config.top_p, config.num_beams, trace), (model, {}, {}))
    memo, done = masked, []
    try:
        for step in range(config.max_new_tokens):
            if step == config.min_new_tokens:
                memo = unmasked  # EOS is no longer masked, which changes every state's successors
            states = [state for _, state, _, _ in live]
            fresh = [state for state in dict.fromkeys(states) if state not in memo]
            if fresh:
                raw = provider.logits_many(fresh)
                if not isinstance(raw, np.ndarray) or raw.dtype != np.float64:
                    raise TypeError(f"logits_many gave {getattr(raw, 'dtype', type(raw).__name__)}, not a float64 array")
                if len(raw) != len(fresh):  # the memo pairs each state with its row
                    raise ValueError(f"logits_many gave {len(raw)} rows for {len(fresh)} states")
                steered = raw.copy() if trace else raw
                rewrite(steered)
                if step < config.min_new_tokens:
                    for row in range(len(fresh)):  # a finite logit or -inf becomes -inf; NaN and +inf turn NaN
                        steered[row, eos] -= math.inf
                for row, (state, succ) in enumerate(zip(fresh, expand(steered, config, zeros))):
                    at = succ[0]  # a trace keeps the raw and steered logits at the successor tokens, not the rows
                    memo[state] = succ, trace and dict(zip(at, zip(raw[row, at].tolist(), steered[row, at].tolist())))
            extended = []
            for total, token, source in pick([memo[state][0] for state in states], live, config, rng):
                _, state, tokens, records = live[source]
                if trace:
                    records += (StepRecord(step, token, *memo[state][1][token]),)
                if token == eos:
                    done.append((total, None, (token, tokens), records))
                else:
                    extended.append((total, provider.advance(state, token), (token, tokens), records))
            live = extended
            if not live:
                break
    except NonFiniteLogitsError as fault:  # its row is one of ``fresh``; name the first live row of that state
        raise NonFiniteLogitsError(states.index(fresh[fault.row]), step) from None
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
