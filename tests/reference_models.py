"""Reference toy-model loader: one type and finiteness test per table entry.

``load_toy_model`` as it was before each table row was checked and converted
in bulk, copied unchanged. tests/test_models.py checks the package's loader
against this copy: a bit-equal table, or the same exception type and message.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from topicsteer.models import ToyMarkovModel, ToyModelFormatError, Vocabulary


def load_toy_model(path: str | Path) -> ToyMarkovModel:
    """Load a toy Markov model from its JSON file format.

    The format is an object with "tokens" (array of token strings), "bos" and
    "eos" (token strings), and "table" (map token string -> array of numbers,
    one row per token, each of vocabulary length).
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ToyModelFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ToyModelFormatError(f"{path}: top level must be an object")
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
        for j, value in enumerate(row):
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ToyModelFormatError(f"{path}: non-finite or non-numeric score for {token!r}[{j}]")
            table[tid, j] = float(value)
    return ToyMarkovModel(vocabulary=vocab, table=table)
