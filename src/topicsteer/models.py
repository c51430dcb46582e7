"""Next-token logits providers and the deterministic toy Markov model.

A provider is anything that satisfies ``LogitsProvider``, which states the
contract. The shipped provider is an order-1 Markov table over a small
vocabulary whose decoding state is the last token id; it keeps every decoding
path exactly reproducible and cheap enough for brute-force oracles.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

__all__ = [
    "LogitVector",
    "TokenSequence",
    "LogitsProvider",
    "NonFiniteLogitsError",
    "ToyMarkovModel",
    "ToyModelFormatError",
    "Vocabulary",
    "as_int",
    "as_logit_vector",
    "as_real",
    "error_text",
    "load_toy_model",
    "log_softmax",
    "read_json",
    "read_text",
    "save_toy_model",
    "softmax",
]

# A float64 array of per-token scores, one per vocabulary token; ``NonFiniteLogitsError`` says which values may occur.
LogitVector = np.ndarray

TokenSequence = Sequence[int]


class ToyModelFormatError(ValueError):
    """Raised when a toy-model file does not conform to the on-disk format."""


class NonFiniteLogitsError(ValueError):
    """The one rule for non-finite logits, under every strategy and method.

    A logit is finite or -inf. A -inf masks its token like the engine's own EOS
    mask: every method keeps it -inf, even one that would move it (alpha <= 0,
    theta = 0). A NaN or +inf raises this error, found by work a step already
    does, as each finder notes; no step scans its block. For a block, ``row``
    is the first row that holds one ("provider logits hold NaN or +inf at row
    R"), and a decode names the step and the first live hypothesis whose state
    holds it ("... at step S, row R"). For a caller's own vector
    (``as_logit_vector``), ``row`` is None, the message names no provider and
    no row ("logit vector holds NaN or +inf"), and a decode passes it on as is.
    """

    def __init__(self, row: int | None = None, step: int | None = None) -> None:
        if row is None:
            super().__init__("logit vector holds NaN or +inf")
        else:
            where = f"row {row}" if step is None else f"step {step}, row {row}"
            super().__init__(f"provider logits hold NaN or +inf at {where}")
        self.row = row

    @classmethod
    def in_block(cls, block: np.ndarray) -> NonFiniteLogitsError:
        """The error for an (n, V) block that holds NaN or +inf, naming the first row that does."""
        return cls(int((block < np.inf).all(axis=1).argmin()))


def as_int(value: object, name: str) -> int:
    """``value`` as a Python int; a bool, float or string is rejected, not truncated.

    Python and numpy integers are integers. The message names ``name``.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} {value!r} is not an integer")


def as_logit_vector(scores: object) -> np.ndarray:
    """A float64 copy of one logit vector: the input rule of every one-vector function.

    Input that is not one-dimensional raises ValueError, and a NaN or +inf
    anywhere raises ``NonFiniteLogitsError``. An empty vector passes.
    """
    x = np.array(scores, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("logit vector must be one-dimensional")
    if not (x < np.inf).all():
        raise NonFiniteLogitsError()
    return x


def as_real(value: object, name: str) -> float:
    """``value`` as a finite Python float: the one rule for a real-number input, naming ``name``.

    A bool or a non-number raises TypeError; NaN, ±inf and an int beyond
    float range raise ValueError. An int or a numpy real scalar is converted.
    """
    if type(value) is not float:  # a plain float, the common case, skips the ABC check
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} {value!r} is not a real number")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{name} must be finite, got an integer beyond float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def error_text(exc: BaseException) -> str:
    """What ``exc`` says to a user: a KeyError's own message, without the quotes its ``str`` adds."""
    return str(exc.args[0]) if isinstance(exc, KeyError) and len(exc.args) == 1 else str(exc)


def read_text(path: str | Path, error: type[ValueError], form: str) -> str:
    """The text of the input file at ``path``, which must be UTF-8 ``form`` (JSON, CSV).

    The one way an input file is opened. A file that cannot be read (missing,
    a directory, unreadable) raises ``error`` naming the path; bytes that are
    not UTF-8 raise it naming the path and the line.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: not valid {form}: line {line}: {exc}") from exc


def read_json(path: str | Path, error: type[ValueError]) -> dict:
    """The JSON object in the file at ``path``; a syntax error or a non-object raises ``error`` naming the file."""
    try:
        raw = json.loads(read_text(path, error, "JSON"))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{path}: top level must be an object")
    return raw


@dataclass(frozen=True)
class Vocabulary:
    """Dense token-id space with designated BOS and EOS entries."""

    tokens: tuple[str, ...]
    bos_id: int
    eos_id: int

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("vocabulary must contain at least one token")
        # one pass builds the id index; a type other than str (a subclass passes) needs the slow scan
        if set(map(type, self.tokens)) != {str} and not all(isinstance(t, str) for t in self.tokens):
            raise ValueError("token strings must be non-empty strings")
        index = dict(zip(self.tokens, range(len(self.tokens))))
        if "" in index:
            raise ValueError("token strings must be non-empty strings")
        if len(index) != len(self.tokens):
            raise ValueError("token strings must be unique")
        object.__setattr__(self, "_index", index)
        for name in ("bos", "eos"):
            tid = as_int(getattr(self, f"{name}_id"), f"{name} id")
            object.__setattr__(self, f"{name}_id", tid)
            if not 0 <= tid < len(self.tokens):
                raise ValueError(f"{name} id {tid} out of range for size {len(self.tokens)}")
        if self.bos_id == self.eos_id:
            raise ValueError("BOS and EOS ids must differ")

    @classmethod
    def from_tokens(cls, tokens: Sequence[str], bos: str, eos: str) -> "Vocabulary":
        tokens = tuple(tokens)
        try:
            bos_id = tokens.index(bos)
            eos_id = tokens.index(eos)
        except ValueError:
            raise ValueError(f"BOS {bos!r} and EOS {eos!r} must both be vocabulary tokens") from None
        return cls(tokens=tokens, bos_id=bos_id, eos_id=eos_id)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int | None:
        """Id of an exactly matching token string, or None."""
        return self._index.get(token)

    def is_special(self, token_id: int) -> bool:
        return token_id in (self.bos_id, self.eos_id)

    def validate_ids(self, ids: TokenSequence) -> list[int]:
        """The ids as Python ints: TypeError for a bool, float or string, ValueError out of [0, size)."""
        size = self.size
        out = []
        for tid in ids:
            i = tid if type(tid) is int else as_int(tid, "token id")
            if not 0 <= i < size:
                raise ValueError(f"token id {tid} out of range for vocabulary of size {size}")
            out.append(i)
        return out

    def encode_words(self, text: str) -> list[int]:
        """Exact-match word encoder used to build prefixes from fixture text.

        Splits on whitespace and, per word, looks up the leading-space form
        then the bare form; words matching neither are skipped. This is not a
        tokenizer: it only recovers ids for strings that are literally
        vocabulary tokens.
        """
        index, ids = self._index, []
        for word in text.split():
            tid = index.get(" " + word)
            if tid is None:
                tid = index.get(word)
            if tid is not None:
                ids.append(tid)
        return ids

    def decode(self, ids: TokenSequence) -> str:
        """Concatenate the token strings of all but BOS and EOS (leading spaces separate words)."""
        special = (self.bos_id, self.eos_id)
        parts = [self.tokens[i] for i in self.validate_ids(ids) if i not in special]
        return "".join(parts).lstrip(" ")


class LogitsProvider(Protocol):
    """Anything that maps a token prefix to one logit vector: the provider contract.

    ``vocabulary`` and ``next_logits`` are all a provider needs. One that also
    has ``start`` is driven through its incremental half, all three of:

    * ``start(prefix) -> state`` checks the prompt once and returns the state
      after it;
    * ``advance(state, token) -> state`` returns the state after one more token
      and leaves the old one usable, since beams that share a parent advance it
      with different tokens;
    * ``logits_many(states) -> ndarray`` returns a fresh C-contiguous float64
      (n, V) block whose row i is ``next_logits`` of the prefix ``states[i]``
      stands for. The engine owns the block and rewrites it in place.

    A state is whatever the provider needs to continue: the last id for an
    order-1 table, a key/value cache for a neural model. States must be
    hashable; ``decoding._StepTable`` says how long equal states must stand
    for equal logits. Without ``start``, the state is the prefix, and the
    engine calls ``next_logits`` on the whole prefix at every step.

    A decode rejects a provider with ``start`` but no ``logits_many``
    (TypeError, before the prompt is read), a block that is not a float64 numpy
    array (TypeError, naming its dtype or type), one without a row per state
    asked for (ValueError, naming both counts), and rows or ``next_logits``
    vectors that are not V wide (``VocabularyMismatchError``).
    ``NonFiniteLogitsError`` says which values the entries may take.
    Implementations must be safe for concurrent read-only queries and, for toy
    models, pure. Real neural backends would adapt to this protocol; none ship
    here.
    """

    @property
    def vocabulary(self) -> Vocabulary: ...

    def next_logits(self, prefix: TokenSequence) -> LogitVector: ...


@dataclass(frozen=True, eq=False)
class ToyMarkovModel:
    """Order-1 Markov logits table: row i scores successors of token i."""

    vocabulary: Vocabulary
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.float64)
        expected = (self.vocabulary.size, self.vocabulary.size)
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape} does not match vocabulary {expected}")
        if not np.isfinite(table).all():
            raise ValueError("toy model table must be finite")
        object.__setattr__(self, "table", table)

    def start(self, prefix: TokenSequence) -> int:
        """Check every prompt id; the state is the last one, the only id the table reads."""
        ids = self.vocabulary.validate_ids(prefix)
        if not ids:
            raise ValueError("prefix must be non-empty")
        return ids[-1]

    def advance(self, state: int, token: int) -> int:
        """The state after ``token``: the token itself."""
        return token

    def logits_many(self, states: Sequence[int]) -> np.ndarray:
        """The table rows of the states, gathered into one fresh (n, V) block."""
        return self.table.take(states, axis=0)

    def next_logits(self, prefix: TokenSequence) -> LogitVector:
        """Logits for the token after ``prefix``: a copy of the table row of its last id, the only one that matters."""
        return self.table[self.start(prefix)].copy()


def softmax(scores: LogitVector) -> np.ndarray:
    """Probabilities from logits along the last axis, stabilized by max subtraction.

    Entries of -inf (masked tokens) get probability exactly 0. Each row of a
    2-D array is normalised on its own, bit for bit as a 1-D call on it.
    """
    x = np.asarray(scores, dtype=np.float64)
    m = x.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValueError("softmax requires at least one finite entry and no +inf/NaN")
    z = x - m
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def log_softmax(scores: LogitVector) -> np.ndarray:
    """Log probabilities from logits; masked (-inf) entries stay -inf."""
    x = np.asarray(scores, dtype=np.float64)
    m = x.max()
    if not np.isfinite(m):
        raise ValueError("log_softmax requires at least one finite entry and no +inf/NaN")
    lse = m + math.log(np.exp(x - m).sum())
    return x - lse


def load_toy_model(path: str | Path) -> ToyMarkovModel:
    """Load a toy Markov model from its JSON file format.

    The format is an object with "tokens" (array of token strings), "bos" and
    "eos" (token strings), and "table" (map token string -> array of numbers,
    one row per token, each of vocabulary length).
    """
    path = Path(path)
    raw = read_json(path, ToyModelFormatError)
    for key in ("tokens", "bos", "eos", "table"):
        if key not in raw:
            raise ToyModelFormatError(f"{path}: missing key {key!r}")
    tokens = raw["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ToyModelFormatError(f"{path}: 'tokens' must be an array of strings")
    try:
        vocab = Vocabulary.from_tokens(tokens, bos=raw["bos"], eos=raw["eos"])
    except ValueError as exc:
        raise ToyModelFormatError(f"{path}: {exc}") from exc
    rows = raw["table"]
    if not isinstance(rows, dict):
        raise ToyModelFormatError(f"{path}: 'table' must be an object keyed by token string")
    unknown = set(rows) - set(vocab.tokens)
    if unknown:
        raise ToyModelFormatError(f"{path}: table rows for unknown tokens: {sorted(unknown)!r}")
    table = np.empty((vocab.size, vocab.size), dtype=np.float64)
    for tid, token in enumerate(vocab.tokens):
        row = rows.get(token)
        if row is None:
            raise ToyModelFormatError(f"{path}: missing table row for token {token!r}")
        if not isinstance(row, list) or len(row) != vocab.size:
            raise ToyModelFormatError(f"{path}: row for {token!r} must list {vocab.size} numbers")
        try:
            values = np.array(row, dtype=np.float64) if set(map(type, row)) <= {int, float} else None
        except OverflowError:  # an int beyond float range; the scan raises at the first bad value
            values = None
        if values is None or not np.isfinite(values).all():
            for j, v in enumerate(row):
                try:
                    as_real(v, "score")
                except (TypeError, ValueError):
                    raise ToyModelFormatError(f"{path}: non-finite or non-numeric score for {token!r}[{j}]") from None
        table[tid] = values
    return ToyMarkovModel(vocabulary=vocab, table=table)


def save_toy_model(model: ToyMarkovModel, path: str | Path) -> None:
    """Write a toy model in the JSON file format; round-trips with load."""
    vocab = model.vocabulary
    payload = {
        "tokens": list(vocab.tokens),
        "bos": vocab.tokens[vocab.bos_id],
        "eos": vocab.tokens[vocab.eos_id],
        "table": {token: model.table[tid].tolist() for tid, token in enumerate(vocab.tokens)},
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
