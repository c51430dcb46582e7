"""Sweep harness: run (method x strength x decoding) conditions over a corpus.

Each corpus sample carries two topic ids with one reference summary each.
A sweep generates one summary per (sample, condition, steered topic), scores
it, and writes a report CSV, a per-condition aggregate CSV, and a manifest;
rows that would decode the same text share one decode, and rows with the same
summary share its scores (``RowContext``, one per sweep). Given the same
config and master seed, outputs are byte-identical; only the manifest
carries a timestamp.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import platform
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, scoring
from .decoding import GenerationConfig, GenerationResult, generate
from .models import LogitsProvider, Vocabulary, as_int, as_real, error_text, load_toy_model, read_text
from .reweight import ProcessorChain, ReweightConfig, build_chain
from .scoring import KEY_COLUMNS, METRIC_COLUMNS, REPORT_COLUMNS, format_score, report_row, score_summary, write_report_csv
from .topics import DEFAULT_TOP_N, TopicModel, TopicTokenSet, load_topic_model, topic_token_set

__all__ = [
    "Condition",
    "CorpusFormatError",
    "CorpusSample",
    "ExperimentConfig",
    "MergeConflictError",
    "MergeResult",
    "RowContext",
    "SweepResult",
    "derive_seed",
    "load_corpus",
    "merge_external_scores",
    "run_sweep",
]

logger = logging.getLogger(__name__)

STEERED_POLICIES = ("tid1", "tid2", "both")
# joins the parts of a row's seed (``derive_seed``), so no article id or condition label may hold it
_SEED_SEPARATOR = "\x1f"


class CorpusFormatError(ValueError):
    """Raised when a corpus file does not conform to the JSON-lines format."""


class MergeConflictError(ValueError):
    """Raised when external score rows disagree on the same key."""


@dataclass(frozen=True)
class CorpusSample:
    """One article with its two most prominent topics and their references."""

    article_id: str
    article: str
    tid1: int
    tid2: int
    ref1: str
    ref2: str

    def __post_init__(self) -> None:
        for name in ("article_id", "article", "ref1", "ref2"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} {getattr(self, name)!r} is not a string")
        if _SEED_SEPARATOR in self.article_id:
            raise ValueError(f"article_id {self.article_id!r} holds {_SEED_SEPARATOR!r}, the seed separator")
        for name in ("tid1", "tid2"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.tid1 == self.tid2:
            raise ValueError(f"article {self.article_id!r}: tid1 and tid2 must differ")
        if not self.ref1 or not self.ref2:
            raise ValueError(f"article {self.article_id!r}: reference summaries must be non-empty")

    def prompt(self, vocab: Vocabulary) -> list[int]:
        """The prefix every row of this article decodes from: BOS, then the encoded article."""
        return [vocab.bos_id, *vocab.encode_words(self.article)]


def load_corpus(path: str | Path, limit: int | None = None) -> list[CorpusSample]:
    """Load JSON-lines corpus samples in file order, truncated to ``limit`` (at least 1)."""
    if limit is not None and as_int(limit, "limit") < 1:
        raise ValueError("articles limit must be >= 1")
    path = Path(path)
    keys = [f.name for f in fields(CorpusSample)]
    samples: dict[str, CorpusSample] = {}
    text = read_text(path, CorpusFormatError, "JSON")
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):  # lines end at \n, \r\n or \r
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
            if not isinstance(raw, dict):
                raise ValueError("each line must be an object")
            missing = set(keys) - set(raw)
            if missing:
                raise ValueError(f"missing keys {sorted(missing)}")
            sample = CorpusSample(**{key: raw[key] for key in keys})
            if sample.article_id in samples:
                raise ValueError(f"duplicate article_id {sample.article_id!r}")
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        except (TypeError, ValueError) as exc:  # CorpusSample's rules and the ones above
            raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
        samples[sample.article_id] = sample
        if limit is not None and len(samples) >= limit:
            break
    if not samples:
        raise CorpusFormatError(f"{path}: no articles")
    return list(samples.values())


@dataclass(frozen=True)
class Condition:
    """One experimental cell: a reweighting setting plus a decoding setting, kept with seed 0 unless it samples."""

    label: str
    reweight: ReweightConfig
    generation: GenerationConfig

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("condition label must be non-empty")
        if _SEED_SEPARATOR in self.label:
            raise ValueError(f"condition label {self.label!r} holds {_SEED_SEPARATOR!r}, the seed separator")
        if self.generation.strategy != "sample":
            object.__setattr__(self, "generation", replace(self.generation, seed=0))

    def generation_for(self, master_seed: int, article_id: str, tid: int) -> GenerationConfig:
        """The generation setting of one row: a sampling row's seed derives from the master seed and the row.

        A greedy or beam row reads no seed, so it gets the condition's setting unchanged.
        """
        if self.generation.strategy != "sample":
            return self.generation
        return replace(self.generation, seed=derive_seed(master_seed, article_id, self.label, tid))


@dataclass(frozen=True)
class ExperimentConfig:
    corpus_path: Path
    topics_path: Path
    model_path: Path
    out_dir: Path
    conditions: tuple[Condition, ...]
    limit: int | None = None
    steered_policy: str = "both"
    master_seed: int = 0
    top_n: int = DEFAULT_TOP_N

    def __post_init__(self) -> None:
        if not self.conditions:
            raise ValueError("at least one condition is required")
        labels = [c.label for c in self.conditions]
        if len(set(labels)) != len(labels):
            raise ValueError("condition labels must be unique")
        if self.steered_policy not in STEERED_POLICIES:
            raise ValueError(f"steered policy must be one of {STEERED_POLICIES}")
        if self.limit is not None:
            object.__setattr__(self, "limit", as_int(self.limit, "limit"))
        for name in ("top_n", "master_seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.limit is not None and self.limit < 1:
            raise ValueError("articles limit must be >= 1")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")

    def to_dict(self) -> dict:
        """Experiment identity for hashing: every field but the output location, paths as text."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}
        values["conditions"] = [asdict(c) for c in self.conditions]
        return {name: str(v) if isinstance(v, Path) else v for name, v in values.items()}


def derive_seed(master_seed: int, *parts: object) -> int:
    """Stable per-row seed from the master seed and row identity.

    Uses SHA-256 over the "\\x1f"-joined string forms, keeping determinism
    independent of execution order and platform.
    """
    text = _SEED_SEPARATOR.join([str(master_seed), *[str(p) for p in parts]])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SweepResult:
    report_path: Path
    aggregate_path: Path
    manifest_path: Path
    rows_total: int
    rows_ok: int
    rows_error: int


def _steered_tids(sample: CorpusSample, policy: str) -> list[int]:
    if policy == "tid1":
        return [sample.tid1]
    if policy == "tid2":
        return [sample.tid2]
    return [sample.tid1, sample.tid2]


class RowContext:
    """Generates and scores report rows for one provider, topic model, ``top_n`` and master seed.

    It expands each topic once, steered topic first, so an unknown topic id
    fails only the rows that need it. It keeps one reweighting chain per method
    and steered topic (none for method ``none``, which reads no topic) for its
    whole life, so later rows step only the states no earlier row met
    (``decoding._StepTable``). It keeps the successful decodes of the latest
    article by method, that topic and the row's generation setting: a row
    whose decode is kept is scored on it without calling ``generate``, and a
    decode that raises is not kept, so the next row that needs it records its
    own error. ``decodes`` counts the decodes it kept.

    It also keeps, for its whole life, the topic-metric strings of each
    summary per (summary tokens, tid1, tid2) and its ROUGE-L string per
    (summary tokens, steered reference). Only a new topic key calls
    ``score_summary`` (through this module's name, which the benchmark
    times), whose ROUGE-L is kept too; a new reference alone scores ROUGE-L
    on the decoded text. A row with both kept decodes, stems and scores
    nothing. A score that raises is not kept.
    """

    def __init__(self, model: LogitsProvider, topic_model: TopicModel, top_n: int, master_seed: int) -> None:
        self.model, self.topic_model, self.top_n, self.master_seed = model, topic_model, top_n, master_seed
        self.decodes = 0
        self._token_sets: dict[int, TopicTokenSet] = {}
        self._chains: dict[tuple, ProcessorChain] = {}
        self._sample: CorpusSample | None = None
        self._prompt: list[int] = []
        self._results: dict[tuple, GenerationResult] = {}
        self._topic_scores: dict[tuple, dict[str, str]] = {}
        self._rouge: dict[tuple, str] = {}

    def run_row(self, sample: CorpusSample, condition: Condition, tid: int) -> tuple[GenerationResult, dict[str, str]]:
        """Generate and score one (sample, condition, steered topic) row; return the result and its CSV row."""
        if tid not in (sample.tid1, sample.tid2):  # before any expansion or decode
            raise ValueError(f"steered topic {tid} is not a topic of article {sample.article_id!r} "
                             f"({sample.tid1}, {sample.tid2})")
        vocab = self.model.vocabulary
        if sample != self._sample:
            self._sample, self._prompt, self._results = sample, sample.prompt(vocab), {}
        for t in (tid, sample.tid1, sample.tid2):
            if t not in self._token_sets:
                self._token_sets[t] = topic_token_set(t, self.topic_model, vocab, self.top_n)
        generation = condition.generation_for(self.master_seed, sample.article_id, tid)
        steer = (condition.reweight, None if condition.reweight.method == "none" else tid)
        key = (*steer, generation)
        result = self._results.get(key)
        if result is None:
            if steer not in self._chains:
                self._chains[steer] = build_chain(condition.reweight, self._token_sets[tid])
            result = self._results[key] = generate(self.model, self._prompt, self._chains[steer], generation)
            self.decodes += 1
        reference = sample.ref1 if tid == sample.tid1 else sample.ref2
        topic_key, rouge_key = (result.tokens, sample.tid1, sample.tid2), (result.tokens, reference)
        topic_scores = self._topic_scores.get(topic_key)
        if topic_scores is None:
            row = report_row(score_summary(
                result, article_id=sample.article_id, condition=condition.label, steered_tid=tid,
                topics=(sample.tid1, sample.tid2), references=(sample.ref1, sample.ref2),
                model=self.topic_model, vocab=vocab, top_n=self.top_n, token_sets=self._token_sets))
            topic_scores = self._topic_scores[topic_key] = {c: row[c] for c in METRIC_COLUMNS[:-1]}  # all but ROUGE-L
            self._rouge[rouge_key] = row["rouge_l_f1"]
        rouge = self._rouge.get(rouge_key)
        if rouge is None:
            rouge = self._rouge[rouge_key] = format_score(scoring.rouge_l_f1(vocab.decode(result.tokens), reference))
        return result, {"article_id": sample.article_id, "condition": condition.label, "steered_tid": str(tid),
                        **topic_scores, "rouge_l_f1": rouge}


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run every (sample, condition, steered topic) cell and write CSV outputs.

    Per-row failures are recorded in the report's "error" column and do not
    stop the sweep. Rows run in corpus, then condition, then steered-topic
    order, each sampling row seeded from the master seed and its identity,
    all through one ``RowContext``. The output directory is made once the
    inputs have loaded and before the first row; a path that cannot be one
    raises ValueError.
    """
    model = load_toy_model(config.model_path)
    topic_model = load_topic_model(config.topics_path)
    corpus = load_corpus(config.corpus_path, config.limit)
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot make output directory {out_dir}: {exc.strerror}") from None
    context = RowContext(model, topic_model, config.top_n, config.master_seed)
    rows: list[dict[str, str]] = []
    for sample in corpus:
        for condition in config.conditions:
            for tid in _steered_tids(sample, config.steered_policy):
                try:
                    _result, row = context.run_row(sample, condition, tid)
                except Exception as exc:  # recorded per row; the sweep continues
                    error = " ".join(error_text(exc).split())
                    logger.warning("row failed: article=%s condition=%s tid=%s: %s",
                                   sample.article_id, condition.label, tid, error)
                    # the report writer leaves the metric cells of a failed row empty
                    row = {"article_id": sample.article_id, "condition": condition.label, "steered_tid": str(tid),
                           "error": error}
                else:
                    row["error"] = ""
                rows.append(row)

    report_path = out_dir / "report.csv"
    aggregate_path = out_dir / "aggregates.csv"
    manifest_path = out_dir / "manifest.json"

    ok_rows = [r for r in rows if not r["error"]]
    write_report_csv(rows, report_path, SWEEP_COLUMNS)
    _write_aggregates(ok_rows, config, aggregate_path)

    rows_error = len(rows) - len(ok_rows)
    per_condition = Counter(r["condition"] for r in rows)
    expected = len(corpus) * len(config.conditions) * (2 if config.steered_policy == "both" else 1)
    # Inputs enter the hash by content, so where a checkout lives does not change it.
    inputs = {key: hashlib.sha256(Path(getattr(config, key)).read_bytes()).hexdigest()
              for key in ("corpus_path", "topics_path", "model_path")}
    identity = json.dumps({**config.to_dict(), **inputs}, sort_keys=True, separators=(",", ":"))
    introspect = getattr(np.lib, "introspect", None)  # numpy >= 2.0 says which SIMD target each loop runs on
    manifest = {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "config_hash": hashlib.sha256(identity.encode("utf-8")).hexdigest(),
        "inputs": inputs,
        "master_seed": config.master_seed,
        "config": config.to_dict(),
        "samples": len(corpus),
        "rows_expected": expected,
        "rows_written": len(rows),
        "rows_ok": len(ok_rows),
        "rows_error": rows_error,
        "rows_per_condition": {c.label: per_condition[c.label] for c in config.conditions},
        "decodes": context.decodes,
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "topicsteer": __version__,
                     "numpy_dispatch": introspect and introspect.opt_func_info("^(exp|log)$", "float64")},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return SweepResult(
        report_path=report_path,
        aggregate_path=aggregate_path,
        manifest_path=manifest_path,
        rows_total=len(rows),
        rows_ok=len(ok_rows),
        rows_error=rows_error,
    )


def _mean_and_stdev(values: list[float]) -> tuple[float, float]:
    """The mean and sample standard deviation of ``values``, each the correctly rounded float of the exact value.

    Each value is scaled to an integer i over the largest (power-of-two)
    denominator, so both are ratios of exact integer sums: the mean one
    ``int / int`` division, the variance (n*sum(i*i) - sum(i)**2) /
    (n*(n-1)*scale**2). Its square root is rounded to odd at 55 or more bits
    (``math.isqrt``, with a sticky last bit where inexact), then once to
    float, which is correctly rounded (Boldo & Melquiond 2008;
    https://bugs.python.org/msg407078), as the standard library's
    statistics.stdev is from Python 3.11 on. One value has stdev 0.0.
    """
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(denominator for _, denominator in ratios)
    ints = [numerator * (scale // denominator) for numerator, denominator in ratios]
    n, total = len(ints), sum(ints)
    mean = total / (n * scale)
    if n < 2:
        return mean, 0.0
    top, bottom = n * sum(i * i for i in ints) - total * total, n * (n - 1) * scale * scale
    shift = (top.bit_length() - bottom.bit_length() - 109) // 2  # the root keeps 55 or more bits
    top, bottom = (top, bottom << 2 * shift) if shift >= 0 else (top << -2 * shift, bottom)
    root = math.isqrt(top // bottom)
    root |= root * root * bottom != top
    return mean, float(root << shift) if shift >= 0 else root / (1 << -shift)


def _write_aggregates(ok_rows: list[dict[str, str]], config: ExperimentConfig, path: Path) -> None:
    """Mean and sample standard deviation per (condition, steered topic), topics in numeric order.

    Both come from exact integer sums (``_mean_and_stdev``), so the file holds
    the same floats on every supported Python.
    """
    groups: dict[tuple[str, str], list[dict[str, str]]] = {}
    for row in ok_rows:
        groups.setdefault((row["condition"], row["steered_tid"]), []).append(row)
    columns = ["condition", "steered_tid", "n"]
    for metric in METRIC_COLUMNS:
        columns += [f"{metric}_mean", f"{metric}_std"]
    out_rows = []
    for condition in config.conditions:
        keys = sorted((k for k in groups if k[0] == condition.label), key=lambda k: int(k[1]))
        for key in keys:
            rows = groups[key]
            record = {"condition": key[0], "steered_tid": key[1], "n": str(len(rows))}
            for metric in METRIC_COLUMNS:
                mean, std = _mean_and_stdev([float(r[metric]) for r in rows])
                record[f"{metric}_mean"], record[f"{metric}_std"] = format_score(mean), format_score(std)
            out_rows.append(record)
    write_report_csv(out_rows, path, columns)


@dataclass(frozen=True)
class MergeResult:
    out_path: Path
    rejects_path: Path
    rows: int
    matched_values: int
    rejected_rows: int
    metrics: tuple[str, ...]


EXTERNAL_COLUMNS = (*KEY_COLUMNS, "metric", "value")
SWEEP_COLUMNS = (*REPORT_COLUMNS, "error")  # what a sweep writes; merge adds a metric under no such name


def _row_key(row: dict[str, str]) -> tuple[str, ...]:
    return tuple(row[c] for c in KEY_COLUMNS)


def _csv_rows(path: str | Path, columns: tuple[str, ...]) -> csv.DictReader:
    """The rows of a CSV file whose header must name ``columns``; a file that lacks one is rejected, naming them."""
    reader = csv.DictReader(io.StringIO(read_text(path, CorpusFormatError, "CSV"), newline=""))
    missing = set(columns) - set(reader.fieldnames or [])
    if missing:
        raise CorpusFormatError(f"{path}: missing columns {sorted(missing)}")
    return reader


def merge_external_scores(
    report_path: str | Path,
    external_path: str | Path,
    out_path: str | Path,
    rejects_path: str | Path,
) -> MergeResult:
    """Left-join externally computed metrics onto a report CSV.

    The external file has columns article_id, condition, steered_tid, metric,
    value; each metric becomes a column joined on the report's full row key
    (article_id, condition, steered_tid). External rows whose key matches no
    report row land in the rejects file. Two external rows for the same key
    and metric with different values are a conflict. A value that is not a
    finite number is rejected with its line, and so is a metric named like
    a column a sweep writes (``REPORT_COLUMNS`` or ``error``). Either file
    must name the columns it is joined on.
    """
    reader = _csv_rows(report_path, KEY_COLUMNS)
    report_columns = list(reader.fieldnames)
    report_rows = list(reader)
    report_keys = {_row_key(row) for row in report_rows}

    values: dict[tuple[str, ...], str] = {}
    rejected: list[dict[str, str]] = []
    reader = _csv_rows(external_path, EXTERNAL_COLUMNS)
    for row in reader:
        key = (*_row_key(row), row["metric"])
        if not row["metric"]:
            raise CorpusFormatError(f"{external_path}:{reader.line_num}: empty metric name for {key}")
        if key[-1] in SWEEP_COLUMNS:
            raise CorpusFormatError(f"{external_path}:{reader.line_num}: metric {key[-1]!r} is a column a sweep writes")
        try:
            as_real(float(row["value"]), "value")  # a short line leaves the value None
        except (TypeError, ValueError):
            raise CorpusFormatError(f"{external_path}:{reader.line_num}: {key}: value {row['value']!r} "
                                    "is not a finite number") from None
        if key[:-1] not in report_keys:
            rejected.append({c: row[c] for c in EXTERNAL_COLUMNS})
            continue
        if key in values and values[key] != row["value"]:
            raise MergeConflictError(
                f"conflicting values for article={key[0]} condition={key[1]} steered_tid={key[2]} metric={key[3]}: "
                f"{values[key]} vs {row['value']}"
            )
        values[key] = row["value"]

    metrics = tuple(sorted({key[-1] for key in values}))
    merged_columns = report_columns + [m for m in metrics if m not in report_columns]
    merged_rows = []
    for row in report_rows:
        merged, key = dict(row), _row_key(row)
        for metric in metrics:
            value = values.get((*key, metric))
            if value is not None:
                merged[metric] = value
        merged_rows.append(merged)
    write_report_csv(merged_rows, out_path, merged_columns)
    write_report_csv(rejected, rejects_path, list(EXTERNAL_COLUMNS))
    return MergeResult(
        out_path=Path(out_path),
        rejects_path=Path(rejects_path),
        rows=len(merged_rows),
        matched_values=len(values),
        rejected_rows=len(rejected),
        metrics=metrics,
    )
