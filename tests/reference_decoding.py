"""Reference decoder: the separate greedy, sampling and beam-search loops.

These are the three loops topicsteer.decoding had before all strategies
shared one loop, copied unchanged, and the top-k/top-p truncation that ran a
full stable sort of the vocabulary on every call, also unchanged. The loops
call this copy, not the package's truncation. tests/test_decoding.py checks
the package's decoding against the loops (equal tokens and bit-equal log
probabilities) and the package's truncation against this copy (bit-equal
output or the same exception).

``_sample`` and ``_beam`` (``SELECTORS``) are one row's selection under
sampling and beam search as the shared loop made it before selection ran
over the truncation's survivors only, and before a decode kept each
state's successors: they normalise the whole V-length truncated vector with
``softmax``/``log_softmax`` and return the row's (token, log prob) choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from topicsteer.decoding import GenerationConfig, GenerationResult
from topicsteer.models import LogitsProvider, LogitVector, TokenSequence, log_softmax, softmax


def truncate_top_k_top_p(scores: LogitVector, top_k: int, top_p: float) -> np.ndarray:
    """Mask everything outside the top-k, then outside the top-p nucleus.

    Survivor order is descending score with ties kept in token-id order. The
    nucleus is the smallest prefix of survivors whose renormalized softmax
    mass reaches top_p; the highest-scoring token always survives. Masked
    entries are set to -inf.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if not 0.0 < top_p <= 1.0:
        raise ValueError("top_p must lie in (0, 1]")
    x = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-x, kind="stable")[: min(top_k, x.size)]
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


@dataclass(frozen=True)
class Beam:
    """One beam-search hypothesis over new tokens."""

    sequence: tuple[int, ...]
    cumulative_log_prob: float
    finished: bool = False


def _validated_prefix(model: LogitsProvider, prefix: TokenSequence) -> list[int]:
    ids = [int(t) for t in prefix]
    if not ids:
        raise ValueError("prefix must be non-empty")
    model.vocabulary.validate_ids(ids)
    return ids


def _steered(chain, raw: np.ndarray) -> np.ndarray:
    return raw.copy() if chain is None else chain.apply(raw)


def _require(config: GenerationConfig, strategy: str) -> GenerationConfig:
    if config.strategy != strategy:
        raise ValueError(f"config.strategy is {config.strategy!r}, expected {strategy!r}")
    return config


def _sample_index(probs: np.ndarray, u: float) -> int:
    """Inverse-CDF draw in token-id order; zero-probability entries can't win."""
    cdf = np.cumsum(probs)
    idx = int(np.searchsorted(cdf, u, side="right"))
    if idx >= probs.size:
        idx = int(np.flatnonzero(probs > 0.0)[-1])
    return idx


def generate_greedy(
    model: LogitsProvider,
    prefix: TokenSequence,
    chain=None,
    config: GenerationConfig | None = None,
) -> GenerationResult:
    """Deterministic argmax decoding over post-chain logits.

    Truncation is skipped: the argmax is invariant under it. Ties resolve to
    the lowest token id.
    """
    config = _require(config or GenerationConfig(strategy="greedy"), "greedy")
    seq = _validated_prefix(model, prefix)
    eos = model.vocabulary.eos_id
    tokens: list[int] = []
    log_prob = 0.0
    while len(tokens) < config.max_new_tokens:
        raw = model.next_logits(seq)
        steered = _steered(chain, raw)
        if len(tokens) < config.min_new_tokens:
            steered[eos] = -np.inf
        token = int(np.argmax(steered))
        log_prob += float(log_softmax(steered)[token])
        tokens.append(token)
        seq.append(token)
        if token == eos:
            break
    return GenerationResult(tokens=tuple(tokens), log_prob=log_prob)


def generate_sample(
    model: LogitsProvider,
    prefix: TokenSequence,
    chain=None,
    config: GenerationConfig | None = None,
) -> GenerationResult:
    """Seeded top-k/top-p sampling; reproducible for a fixed seed."""
    config = _require(config or GenerationConfig(strategy="sample"), "sample")
    seq = _validated_prefix(model, prefix)
    eos = model.vocabulary.eos_id
    rng = np.random.Generator(np.random.PCG64(config.seed))
    tokens: list[int] = []
    log_prob = 0.0
    while len(tokens) < config.max_new_tokens:
        raw = model.next_logits(seq)
        steered = _steered(chain, raw)
        if len(tokens) < config.min_new_tokens:
            steered[eos] = -np.inf
        truncated = truncate_top_k_top_p(steered, config.top_k, config.top_p)
        probs = softmax(truncated)
        token = _sample_index(probs, rng.random())
        log_prob += math.log(probs[token])
        tokens.append(token)
        seq.append(token)
        if token == eos:
            break
    return GenerationResult(tokens=tuple(tokens), log_prob=log_prob)


def generate_beam(
    model: LogitsProvider,
    prefix: TokenSequence,
    chain=None,
    config: GenerationConfig | None = None,
) -> GenerationResult:
    """Beam search over post-chain, post-truncation log probabilities.

    Each live beam proposes its top num_beams successors; the global top
    num_beams candidates are retained, ranked by cumulative log probability
    with ties broken by lower token id then lower beam index. A beam that
    emits EOS is finished and never extended. No length normalization is
    applied. Returns the best finished beam, or the best live one when the
    length limit cuts the search off.
    """
    config = _require(config or GenerationConfig(strategy="beam"), "beam")
    base = _validated_prefix(model, prefix)
    eos = model.vocabulary.eos_id
    live: list[Beam] = [Beam(sequence=(), cumulative_log_prob=0.0)]
    done: list[Beam] = []
    for step in range(config.max_new_tokens):
        if not live:
            break
        # (cumulative log prob, token id, source beam index)
        candidates: list[tuple[float, int, int]] = []
        for beam_index, beam in enumerate(live):
            raw = model.next_logits(base + list(beam.sequence))
            steered = _steered(chain, raw)
            if step < config.min_new_tokens:
                steered[eos] = -np.inf
            truncated = truncate_top_k_top_p(steered, config.top_k, config.top_p)
            log_probs = log_softmax(truncated)
            finite = np.flatnonzero(np.isfinite(log_probs))
            best = finite[np.argsort(-log_probs[finite], kind="stable")][: config.num_beams]
            for token in best:
                candidates.append(
                    (beam.cumulative_log_prob + float(log_probs[token]), int(token), beam_index)
                )
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_live: list[Beam] = []
        for score, token, beam_index in candidates[: config.num_beams]:
            extended = Beam(
                sequence=live[beam_index].sequence + (token,),
                cumulative_log_prob=score,
                finished=token == eos,
            )
            if extended.finished:
                done.append(extended)
            else:
                next_live.append(extended)
        live = next_live
    pool = done if done else live
    if not pool:
        return GenerationResult(tokens=(), log_prob=0.0)
    winner = max(pool, key=lambda b: b.cumulative_log_prob)
    return GenerationResult(tokens=winner.sequence, log_prob=winner.cumulative_log_prob)


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


SELECTORS = {"sample": _sample, "beam": _beam}
REFERENCE = {"greedy": generate_greedy, "sample": generate_sample, "beam": generate_beam}
