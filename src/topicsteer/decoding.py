"""Token generation from any logits provider: greedy, sampling, beam search.

All strategies share one loop, ``_decode``, which also owns the successor
memo. Only the successors and the pick differ: greedy takes the steered
argmax (``_greedy``); sampling (``_sample``) and beam search (``_beam``) first
cut each row to its top-k/top-p survivors (``_truncate``) and normalise over
the full truncated row (``_normalisers``). Reweighting runs before
truncation on purpose: a boosted token must be able to re-enter the
candidate set even if the raw logits placed it outside the top-k.
``models.LogitsProvider`` states the provider contract and
``models.NonFiniteLogitsError`` the rule for non-finite logits.

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
    as_logit_vector,
    as_real,
    flat_ids,
    log_softmax,  # noqa: F401  (no step calls it or softmax; tracers wrap both names)
    softmax,  # noqa: F401
)
from .reweight import ProcessorChain, VocabularyMismatchError

__all__ = [
    "GenerationConfig",
    "GenerationResult",
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
class GenerationResult:
    """Generated continuation (new tokens only) and its cumulative log prob."""

    tokens: tuple[int, ...]
    log_prob: float

    def to_record(self, vocab: Vocabulary, config: GenerationConfig) -> dict:
        """JSON-serializable record: tokens, decoded text, log prob, config."""
        return {
            "tokens": list(self.tokens),
            "text": vocab.decode(self.tokens),
            "log_prob": self.log_prob,
            "config": asdict(config),
        }


def truncate_top_k_top_p(scores: LogitVector, top_k: int, top_p: float) -> np.ndarray:
    """Mask everything outside the top-k, then the top-p nucleus, with -inf: the one-row case of ``_truncate``.

    ``scores`` passes ``models.as_logit_vector``; ``top_k`` and ``top_p`` pass ``GenerationConfig``.
    """
    config = GenerationConfig("sample", top_k, top_p)
    x = as_logit_vector(scores)
    if not x.size:
        raise ValueError(_MASKED)
    ids, _, kept, _ = _truncate(x[None], config.top_k, config.top_p)
    out = np.full_like(x, -np.inf)
    out[ids[0]] = kept[0]
    return out


def _truncate(x: np.ndarray, top_k: int, top_p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise top-k/top-p truncation of a float64 (n, V) block: the one survivor step of sampling and beam search.

    Returns ``(ids, flat, kept, weights)``, each (n, min(top_k, V)): each row's
    top-k ids in survivor order, those ids as indices into the flat block,
    their scores (-inf where an id does not survive) and their weights
    ``exp(kept - top)`` (0 where it does not), ``top`` being the row's best.

    Survivor order is descending score, ties in token-id order, with masked
    (-inf) ids dropped. Rows of at most max(1024, 4 * top_k) entries get one
    stable sort. A longer row is first cut by a block-max bound: its first
    k * (V // k) entries form k blocks, whose smallest maximum at least k
    entries reach, so every entry below it ranks after the survivors. A
    partition of the entries that reach it, in id order, finds the top_k-th
    best score; those strictly better are sorted stably and the lowest ids that
    tie with it fill the rest. Both paths give the same ids in the same order.

    The nucleus is the shortest prefix of a row's survivors whose mass reaches
    top_p: entry j survives if the mass strictly before it is < top_p, so the
    top token always does. The mass is the cumsum of the weights over their
    sum, the same operations as a ``softmax`` of the survivors, so sampling and
    beam search normalise the weights the nucleus was cut by. A block whose
    survivors are all finite is cut at once; one with a masked survivor is cut
    row by row, over each row's finite survivors, which lead it.

    The cut finds a NaN or +inf itself: a +inf leads its row's survivors, and a
    NaN sorts last in a whole-row sort or, above the size rule, turns the bound
    NaN, unless it lies in the V % k entries past the last block, which are
    looked at.
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

    ``zeros`` is a view of the decode's zero block, all zeros again on return:
    (V,) for one row's ids, giving a scalar, or the first n rows for
    ``_truncate``'s (n, k) flat indices, giving n sums. Summed over the full
    length, numpy's pairwise sum groups the weights as a ``softmax`` of the
    whole truncated row does, so the probabilities are bit for bit that
    softmax's; a sum over the survivors alone can differ in the last bit.
    """
    zeros.put(flat, weights)
    sums = zeros.sum(axis=-1)
    zeros.put(flat, 0.0)
    return sums


# A strategy is a successors function and a pick. The successors function maps
# a step's steered, EOS-masked (n, V) block to each row's successors, whose
# first entry lists their token ids; ``zeros`` is the decode's all-zero block
# for ``_normalisers``. The pick maps the live hypotheses' successors to the
# kept ones, best first, as (cumulative log prob, token, source row).
def _greedy(steered: np.ndarray, config: GenerationConfig, zeros: np.ndarray) -> list:
    """The one row's argmax of the untruncated logits, as ([token], [log prob]); truncation never changes the argmax.

    Its log probability is ``log_softmax(row)[token]`` bit for bit, since the
    argmax entry is the row's max. The argmax is also the step's check: it
    lands on the row's first NaN, else on a +inf.
    """
    row = steered[0]
    token = int(row.argmax())
    top = float(row[token])
    if not -math.inf < top < math.inf:
        raise ValueError(_MASKED) if top == -math.inf else NonFiniteLogitsError(0)
    return [([token], [top - (top + math.log(np.exp(row - top).sum()))])]


def _sample(steered: np.ndarray, config: GenerationConfig, zeros: np.ndarray) -> list:
    """The one row's top-k ids in token-id order, with their probabilities and cumulative sum: three short arrays."""
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

    A row ranks its successors by log probability, lower id first on ties, and
    drops those at -inf. Its finite survivors lead it in survivor order with
    log probabilities that never increase, so its best num_beams come first;
    where rounding ties log probabilities across the num_beams boundary, the
    lowest ids of that tie run fill it.
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

    A state is the prefix as two tuples, the prompt's ids (one per decode,
    shared by its states) and the tokens after it. ``logits_many`` copies each
    state's ``next_logits`` into the first n rows of a (width, V) block that
    the adapter allocates once per decode, as soon as it is made, so at large V
    no more than one row is alive next to the block; a vector whose shape is
    not (V,) raises ``VocabularyMismatchError`` instead of broadcasting.
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


def _decode(model: LogitsProvider, prefix: TokenSequence, chain, config: GenerationConfig,
            strategy: str) -> GenerationResult:
    """The one decoding loop; ``strategy`` picks the successors, the pick and the width.

    The provider (``models.LogitsProvider``) checks the prompt once; each kept
    hypothesis then advances its own state and keeps its new tokens as a
    ``(token, parent)`` chain, so extending one costs O(1). The reweighting
    chain (method "none" when None) is bound once (``ProcessorChain.bind``).

    The successor memo. A row's successors are a function of that row alone, so
    a step looks up the live hypotheses' states in a memo, one per EOS phase
    (EOS masked while below the minimum length, then not). The states it lacks,
    each once and in live order, form one (n, V) block: one ``logits_many``
    call, the bound rewrite in place, the EOS mask, and each row's successors,
    which the memo keeps. The memo lives on the chain until the chain is
    dropped, keyed by the caller's provider object (never the ``_PrefixStates``
    adapter, whose block must not outlive the decode) and the successor
    settings: strategy, top_k, top_p and num_beams, but not the seed, which
    successors do not read, nor the length window, which only sets the phase. A
    decode without a chain starts an empty one. A later decode through the same
    chain, provider and settings steps only the states that no earlier one met,
    so equal states must stand for equal logits for as long as a chain is
    reused with a provider. The entry holds the provider, so its id is not
    reused. Where states are heavy (a key/value cache), one chain per prompt,
    as ``cli generate`` builds, keeps no more alive than one decode does. A
    block that raises keeps nothing: the rewrite and the successors functions
    raise before their first row.

    The pick keeps the global top ``width`` (1, or num_beams) of all rows'
    candidates by cumulative log probability, ties to the lower token id, then
    the lower source row. A hypothesis that emits EOS is finished and never
    advanced, but takes one of the ``width`` slots of its step, and no extra
    candidate refills it. Returns the best finished hypothesis (the earliest on
    ties), or the best live one if max_new_tokens cuts it off.
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
    # (cumulative log prob, provider state, (token, parent) chain)
    live = [(0.0, provider.start(prefix), ())]
    chain = chain or ProcessorChain()
    rewrite = chain.bind(width, size)
    # Per EOS phase, state -> its successors
    _, masked, unmasked = chain._memo.setdefault(
        (id(model), strategy, config.top_k, config.top_p, config.num_beams), (model, {}, {}))
    memo, done = masked, []
    try:
        for step in range(config.max_new_tokens):
            if step == config.min_new_tokens:
                memo = unmasked  # EOS is no longer masked, which changes every state's successors
            states = [state for _, state, _ in live]
            fresh = [state for state in dict.fromkeys(states) if state not in memo]
            if fresh:
                raw = provider.logits_many(fresh)
                if not isinstance(raw, np.ndarray) or raw.dtype != np.float64:
                    raise TypeError(f"logits_many gave {getattr(raw, 'dtype', type(raw).__name__)}, not a float64 array")
                if len(raw) != len(fresh):  # the memo pairs each state with its row
                    raise ValueError(f"logits_many gave {len(raw)} rows for {len(fresh)} states")
                steered = rewrite(raw)
                if step < config.min_new_tokens:
                    for row in range(len(fresh)):  # a finite logit or -inf becomes -inf; NaN and +inf turn NaN
                        steered[row, eos] -= math.inf
                memo.update(zip(fresh, expand(steered, config, zeros)))
            extended = []
            for total, token, source in pick([memo[state] for state in states], live, config, rng):
                _, state, tokens = live[source]
                if token == eos:
                    done.append((total, None, (token, tokens)))
                else:
                    extended.append((total, provider.advance(state, token), (token, tokens)))
            live = extended
            if not live:
                break
    except NonFiniteLogitsError as fault:  # a block's row is one of ``fresh``; name the first live row of that state
        if fault.row is None:  # the provider checked a vector of its own (``models.as_logit_vector``)
            raise
        raise NonFiniteLogitsError(states.index(fresh[fault.row]), step) from None
    total, _, tokens = max(done or live, key=lambda hypothesis: hypothesis[0])
    return GenerationResult(_tokens(tokens), total)


def generate_greedy(
    model: LogitsProvider,
    prefix: TokenSequence,
    chain=None,
    config: GenerationConfig | None = None,
) -> GenerationResult:
    """Deterministic argmax decoding over post-chain logits; ties resolve to the lowest token id."""
    return _decode(model, prefix, chain, config or GenerationConfig(strategy="greedy"), "greedy")


def generate_sample(
    model: LogitsProvider,
    prefix: TokenSequence,
    chain=None,
    config: GenerationConfig | None = None,
) -> GenerationResult:
    """Seeded top-k/top-p sampling; reproducible for a fixed seed."""
    return _decode(model, prefix, chain, config or GenerationConfig(strategy="sample"), "sample")


def generate_beam(
    model: LogitsProvider,
    prefix: TokenSequence,
    chain=None,
    config: GenerationConfig | None = None,
) -> GenerationResult:
    """Beam search over post-chain, post-truncation log probabilities, without length normalization (``_decode``)."""
    return _decode(model, prefix, chain, config or GenerationConfig(strategy="beam"), "beam")


def generate(
    model: LogitsProvider,
    prefix: TokenSequence,
    chain=None,
    config: GenerationConfig | None = None,
) -> GenerationResult:
    """Dispatch to the generator selected by config.strategy."""
    config = config or GenerationConfig()
    if config.strategy == "greedy":
        return generate_greedy(model, prefix, chain, config)
    if config.strategy == "sample":
        return generate_sample(model, prefix, chain, config)
    return generate_beam(model, prefix, chain, config)
