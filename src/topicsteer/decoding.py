"""Token generation from any logits provider: greedy, sampling, beam search.

All strategies share one loop, ``_decode``, and one memo, ``_StepTable``. Only
the successors and the pick differ: greedy takes the steered argmax
(``_greedy``); sampling (``_sample``) and beam search (``_beam``) build theirs
from each row's survivors record, which ``_truncate`` makes: its top-k/top-p
cut and its normaliser over the full truncated row.
Reweighting runs before truncation on purpose: a boosted token must be able
to re-enter the candidate set even if the raw logits placed it outside the
top-k.
``models.LogitsProvider`` states the provider contract and
``models.NonFiniteLogitsError`` the rule for non-finite logits.

Determinism contract: greedy and beam search are fully deterministic; ties
go to the lower token id, then the lower beam index. Sampling maps one uniform
per emitted token, taken in order from a PCG64 stream seeded from the config,
through the inverse CDF in token-id order; draws past the last go unused.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .models import (
    LogitsProvider,
    LogitVector,
    NonFiniteLogitsError,
    TokenSequence,
    as_int,
    as_logit_vector,
    as_real,
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


def truncate_top_k_top_p(scores: LogitVector, top_k: int, top_p: float) -> np.ndarray:
    """Mask everything outside the top-k, then the top-p nucleus, with -inf: the one-row case of ``_truncate``.

    ``scores`` passes ``models.as_logit_vector``; ``top_k`` and ``top_p`` pass ``GenerationConfig``.
    """
    config = GenerationConfig("sample", top_k, top_p)
    x = as_logit_vector(scores)
    if not x.size:
        raise ValueError(_MASKED)
    [(ids, kept, _, _)] = _truncate(x[None], config, np.zeros(x.size))
    out = np.full_like(x, -np.inf)
    out[ids] = kept
    return out


def _truncate(x: np.ndarray, config: GenerationConfig, zeros: np.ndarray) -> list[tuple]:
    """Each row's survivors record ``(ids, kept, weights, norm)``: the top-k/top-p cut of a float64 (n, V) block.

    The one survivor step of sampling and beam search, which share the
    records (``_StepTable`` keeps them); greedy search keeps its own successors.
    A record's arrays hold min(top_k, V) entries: the row's top-k ids in
    survivor order, their scores (-inf where an id does not survive) and their
    weights ``exp(kept - top)`` (0 where it does not), ``top`` being the row's
    best. ``norm`` is the sum of the weights. Each row is cut alone, by 1-D
    operations, into arrays of its own, so a record holds no V-long row and is
    the same whatever block its row came in.

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
    beam search normalise the weights the nucleus was cut by.

    ``norm`` is summed over ``zeros``, the table's zero row of length V, with
    the weights put at their ids and zeros put back after. Summed over the full
    length, numpy's pairwise sum groups the weights as a ``softmax`` of the
    whole truncated row does, so the probabilities are bit for bit that
    softmax's; a sum over the survivors alone can differ in the last bit.

    The cut finds a NaN or +inf itself: a +inf leads its row's survivors, and a
    NaN sorts last in a whole-row sort or, above the size rule, turns the bound
    NaN, unless it lies in the V % k entries past the last block, which are
    looked at. Any NaN or +inf in the block outranks a masked row.
    """
    size = x.shape[1]
    k = min(config.top_k, size)
    records = []
    for row in x:
        if size <= max(_BOUND_MIN_SIZE, 4 * k):
            order = (-row).argsort(kind="stable")
            if math.isnan(row[order[-1]]):
                raise NonFiniteLogitsError.in_block(x)
            ids = order[:k].copy()
        else:
            blocks_end = size - size % k
            bound = row[:blocks_end].reshape(k, -1).max(axis=1).min()
            if math.isnan(bound) or np.isnan(row[blocks_end:]).any():
                raise NonFiniteLogitsError.in_block(x)
            top = (row >= bound).nonzero()[0]  # in id order
            scores = row[top]
            ranked = -scores
            ranked.partition(k - 1)
            boundary = -ranked[k - 1]  # the top_k-th best score
            better = top[scores > boundary]
            ties = top[scores == boundary][: k - better.size]
            ids = np.concatenate([better[(-row[better]).argsort(kind="stable")], ties])
        kept = row.take(ids)
        count = k if kept[-1] > -math.inf else int(np.isfinite(kept).sum())  # the finite survivors lead
        if not count or kept[0] == math.inf:  # a masked row, or a +inf top
            raise ValueError(_MASKED) if (x < np.inf).all() else NonFiniteLogitsError.in_block(x)
        weights = np.zeros(k)
        mass = weights[:count]
        np.subtract(kept[:count], kept[0], out=mass)
        np.exp(mass, out=mass)
        if config.top_p < 1.0:
            count = 1 + int((mass / mass.sum()).cumsum()[:-1].searchsorted(config.top_p))
            kept[count:] = -np.inf
            weights[count:] = 0.0
        zeros.put(ids, weights)
        norm = float(zeros.sum())
        zeros.put(ids, 0.0)
        records.append((ids, kept, weights, norm))
    return records


# A strategy is a build and a pick, greedy's build being None: the build maps a
# survivors record (``_truncate``) to the successors ``_StepTable`` keeps (greedy's
# are ``_greedy``'s), and the pick the live rows' successors to the kept ones,
# best first, as sort keys (-cumulative log prob, token, source row). Each
# hypothesis keeps its key, from -0.0, and a successor's is ``key - log_prob``,
# which is -(total + log_prob) bit for bit except that a -0.0 log prob (a -0.0
# top logit that holds all the mass) turns key -0.0 into +0.0. Zeros of either
# sign rank alike, and ``_decode`` returns ``0.0 - key``, +0.0 for both.
def _greedy(steered: np.ndarray) -> list:
    """The one row's argmax of the untruncated logits with its log prob; truncation never changes the argmax.

    Its log probability is ``log_softmax(row)[token]`` bit for bit, since the
    argmax entry is the row's max. The argmax is also the step's check: it
    lands on the row's first NaN, else on a +inf.
    """
    row = steered[0]
    token = int(row.argmax())
    top = float(row[token])
    if not -math.inf < top < math.inf:
        raise ValueError(_MASKED) if top == -math.inf else NonFiniteLogitsError(0)
    return [(top - (top + math.log(np.exp(row - top).sum())), token)]


def _sample(record: tuple, config: GenerationConfig) -> tuple:
    """The row's ids of positive weight, which lead it, in id order, with their probabilities and cumulative sum."""
    ids, _, weights, norm = record
    by_id = ids[: np.count_nonzero(weights)].argsort()
    probs = weights.take(by_id) / norm
    return ids.take(by_id).tolist(), probs.tolist(), probs.cumsum().tolist()


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """The generator's uniform doubles in stream order, 64 to a call: ``random(n)`` gives those of n ``random()`` calls."""
    while True:
        yield from rng.random(64).tolist()


def _draw(successors: list, live: list, config: GenerationConfig, uniforms: Iterator[float]) -> tuple:
    """Inverse-CDF draw of the next uniform over the ids in token-id order; zero-probability entries can't win."""
    (ids, probs, cdf), = successors
    index = bisect_right(cdf, next(uniforms))
    if index == len(probs):  # past the last sum, which rounding can leave below 1
        index = max(i for i, prob in enumerate(probs) if prob > 0.0)
    return ((live[0][0] - math.log(probs[index]), ids[index], 0),)


def _beam(record: tuple, config: GenerationConfig) -> list:
    """A row's num_beams most likely truncated successors with their log probs, best first.

    A row ranks its successors by log probability, lower id first on ties, and
    drops those at -inf. Its finite survivors lead it in survivor order with
    log probabilities that never increase, so its best num_beams come first;
    where rounding ties log probabilities across the num_beams boundary, the
    lowest ids of that tie run fill it.
    """
    ids, kept, _, norm = record
    beams = config.num_beams
    head = kept[: beams + 1].tolist()
    head_ids = ids[: beams + 1].tolist()
    lse = head[0] + math.log(norm)
    # -inf where masked, or where a survivor far below the top overflows
    log_probs = [score - lse for score in head]
    if len(log_probs) > beams and log_probs[beams - 1] == log_probs[beams] > -math.inf:
        # a tie across the boundary: the whole tie run competes for its places, lowest ids first
        tie = log_probs[beams]
        log_probs = [score - lse for score in kept.tolist()]
        head_ids = ids.tolist()
        first = log_probs.index(tie)
        head_ids[first:beams] = sorted(head_ids[first: first + log_probs.count(tie)])[: beams - first]
    count = sum(log_prob > -math.inf for log_prob in log_probs[:beams])  # the finite ones lead
    return list(zip(log_probs[:count], head_ids[:count]))


def _best(successors: list, live: list, config: GenerationConfig, uniforms: None) -> list:
    """The global top num_beams of all rows' successors: by cumulative log prob, then lower token id, then lower row."""
    candidates = []
    for source, (hypothesis, pairs) in enumerate(zip(live, successors)):
        key = hypothesis[0]
        for log_prob, token in pairs:
            candidates.append((key - log_prob, token, source))
    candidates.sort()
    del candidates[config.num_beams:]
    return candidates


def _extend(successors: list, live: list, config: GenerationConfig, uniforms: None) -> tuple:
    """Greedy's pick: the one hypothesis extended by its one successor."""
    (log_prob, token), = successors
    return ((live[0][0] - log_prob, token, 0),)


_SELECTORS = dict(greedy=(None, _extend), sample=(_sample, _draw), beam=(_beam, _best))


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


class _StepTable:
    """A chain's memo for one provider and successor settings: the stepping table.

    A row's successors are a function of that row alone, so a step looks up
    the live hypotheses' states in ``phases``, one dict per EOS phase (EOS
    masked while below the minimum length, then not), indexed by whether EOS
    is masked. They hold the successors in the plain Python form the pick
    reads: greedy's (log prob, token), sampling's (ids, probs, cumulative
    probs), beam search's (log prob, token) pairs, best first. ``successors``
    makes those a step lacks. Sampling and beam search build theirs from the
    state's survivors record in ``records``, also one dict per phase, which
    ``_truncate`` makes, its norm summed over the table's one zero row of
    length V. A record serves both phases, and is kept under each, when the
    row's EOS score, read before the mask, is strictly below its k-th
    survivor's, k being min(top_k, V): EOS then ranks after every survivor,
    masked or not, so the cut is the same bits. A tie at that score, or fewer
    than k finite scores, does not count. The successors of such a record are
    kept under both phases too, so a state that recurs across the switch (an
    order-1 table; prefix states and key/value caches never do) is asked for
    once. Greedy keeps no record, only its successors per phase, as its log
    prob is normalised over the untruncated row, which the EOS mask changes
    wherever EOS ranks; its record dicts are its own and stay empty. Only the
    states that lack both, each once and in live order, form one (n, V) block:
    one ``logits_many`` call, the rewrite in place (``ProcessorChain.bind``,
    bound once per table), the EOS mask, then ``_greedy`` or ``_truncate``.

    A chain keeps its tables until it is dropped, one per caller's provider
    object (not the ``_PrefixStates`` adapter, whose block must not outlive
    the decode) and successor settings: strategy, top_k, top_p and num_beams.
    The sampling and beam search tables of one provider, top_k and top_p share
    their ``records``, which the chain keeps too. A later decode through the
    chain and provider steps only the states no earlier one met, so equal
    states must stand for equal logits for as long as a chain is reused with
    a provider; each table holds its provider, so the id is not reused. A
    decode without a chain starts an empty one. A chain used for one decode
    (``cli generate``) keeps no more heavy states (a key/value cache) alive
    than that decode; one kept for a sweep (``experiment.RowContext``) keeps
    every state its decodes met. A block that raises keeps nothing: the
    rewrite and the cut raise before any state is kept.
    """

    def __init__(self, model: LogitsProvider, chain: ProcessorChain, config: GenerationConfig, width: int) -> None:
        self.model, self.config, self.eos = model, config, model.vocabulary.eos_id  # config for its successor settings
        self.build = _SELECTORS[config.strategy][0]
        self.phases = ({}, {})  # state -> successors, EOS unmasked then masked
        self.records = ({}, {}) if self.build is None else chain._memo.setdefault(
            (id(model), config.top_k, config.top_p), ({}, {}))
        self.rewrite = chain.bind(width, model.vocabulary.size)
        self.zeros = np.zeros(model.vocabulary.size)

    @classmethod
    def of(cls, model: LogitsProvider, chain: ProcessorChain, config: GenerationConfig, width: int) -> _StepTable:
        """The chain's table for ``model`` and the successor settings of ``config``, made on first use."""
        key = (id(model), config.strategy, config.top_k, config.top_p, config.num_beams)
        return chain._memo.get(key) or chain._memo.setdefault(key, cls(model, chain, config, width))

    def successors(self, provider, states: list, step: int, masked: bool) -> list:
        """The successors of the live ``states`` at ``step``, each state the table lacks stepped once, in one block."""
        memo, records = self.phases[masked], self.records[masked]
        fresh = [state for state in dict.fromkeys(states) if state not in memo]
        asked = [state for state in fresh if state not in records] if records else fresh  # greedy's stay empty
        if asked:
            try:
                raw = provider.logits_many(asked)
                if not isinstance(raw, np.ndarray) or raw.dtype != np.float64:
                    kind = getattr(raw, "dtype", type(raw).__name__)
                    raise TypeError(f"logits_many gave {kind}, not a float64 array")
                if len(raw) != len(asked):  # the table pairs each state with its row
                    raise ValueError(f"logits_many gave {len(raw)} rows for {len(asked)} states")
                steered = self.rewrite(raw)
                eos_scores = steered[:, self.eos].tolist() if self.build else None  # read before the mask, for records
                if masked:
                    for row in range(len(asked)):  # a finite logit or -inf becomes -inf; NaN and +inf turn NaN
                        steered[row, self.eos] -= math.inf
                made = _greedy(steered) if self.build is None else _truncate(steered, self.config, self.zeros)
            except NonFiniteLogitsError as fault:  # its row is one of ``asked``; name the first live row of that state
                if fault.row is None:  # the provider checked a vector of its own (``models.as_logit_vector``)
                    raise
                raise NonFiniteLogitsError(states.index(asked[fault.row]), step) from None
            if self.build is None:
                memo.update(zip(asked, made))
                return [memo[state] for state in states]
            for row, (state, record) in enumerate(zip(asked, made)):
                # EOS below the k-th survivor: masking it moves no survivor, so both phases share the record
                for phase in self.records if eos_scores[row] < steered[row, record[0][-1]] else (records,):
                    phase[state] = record
        for state in fresh:
            memo[state] = self.build(records[state], self.config)
            if self.records[not masked].get(state) is records[state]:  # and so do its successors
                self.phases[not masked][state] = memo[state]
        return [memo[state] for state in states]


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
    ``(token, parent)`` chain, so extending one costs O(1). Each step looks the
    live states up in the stepping table (``_StepTable``) that the reweighting
    chain (method "none" when None) keeps for the caller's provider and the
    successor settings, and has the table step those it lacks.

    The pick keeps the global top ``width`` (1, or num_beams) of all rows'
    candidates by cumulative log probability, ties to the lower token id, then
    the lower source row. A hypothesis that emits EOS is finished and never
    advanced, but takes one of the ``width`` slots of its step, and no extra
    candidate refills it. Returns the best finished hypothesis (the earliest on
    ties), or the best live one if max_new_tokens cuts it off.
    """
    if config.strategy != strategy:
        raise ValueError(f"config.strategy is {config.strategy!r}, expected {strategy!r}")
    pick = _SELECTORS[strategy][1]
    uniforms = _uniforms(np.random.Generator(np.random.PCG64(config.seed))) if strategy == "sample" else None
    width = config.num_beams if strategy == "beam" else 1
    provider = model if hasattr(model, "start") else _PrefixStates(model, width)
    if not hasattr(provider, "logits_many"):
        raise TypeError(f"{type(model).__name__} has start but no logits_many")
    eos = model.vocabulary.eos_id
    # (sort key, provider state, (token, parent) chain)
    live = [(-0.0, provider.start(prefix), ())]
    table = _StepTable.of(model, chain or ProcessorChain(), config, width)
    phase, done = table.phases[True], []
    for step in range(config.max_new_tokens):
        if step == config.min_new_tokens:
            phase = table.phases[False]  # EOS is no longer masked, which changes every state's row
        successors = [phase.get(state) for _, state, _ in live]
        if None in successors:
            successors = table.successors(provider, [state for _, state, _ in live], step, step < config.min_new_tokens)
        extended = []
        for key, token, source in pick(successors, live, config, uniforms):
            _, state, tokens = live[source]
            if token == eos:
                done.append((key, None, (token, tokens)))
            else:
                extended.append((key, provider.advance(state, token), (token, tokens)))
        live = extended
        if not live:
            break
    key, _, tokens = min(done or live, key=lambda hypothesis: hypothesis[0])
    return GenerationResult(_tokens(tokens), 0.0 - key)


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
