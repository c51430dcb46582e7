"""Command-line harness: single-article generation, sweeps, merges, debugging.

Subcommands:
  generate      decode one article and print the summary with its scores
  sweep         run a full (method x strength x decoding) experiment to CSV
  merge         join externally computed quality metrics into a report CSV
  expand-topic  print the vocabulary token set a topic expands to

Exit codes: 0 success, 1 usage or configuration error, 2 sweep completed
with per-row errors, 3 total failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

from . import fixtures
from .decoding import STRATEGIES, GenerationConfig
from .experiment import (
    STEERED_POLICIES,
    Condition,
    CorpusFormatError,
    ExperimentConfig,
    MergeConflictError,
    load_corpus,
    merge_external_scores,
    run_row,
    run_sweep,
)
from .models import as_real, error_text, load_toy_model, read_json
from .reweight import ReweightConfig
from .scoring import KEY_COLUMNS
from .topics import load_topic_model, topic_token_set

# CLI and config-file method names -> ReweightConfig method names.
METHOD_NAMES = {
    "none": "none",
    "shift": "constant_shift",
    "scale": "factor_scaling",
    "threshold": "threshold_selection",
}


@dataclass(frozen=True)
class Setting:
    """A flag and config key: the dataclass field it sets, whose default it shares.

    Input paths have no field default; ``factory`` gives theirs.
    """

    owner: type
    field: str
    type: type
    help: str
    choices: tuple[str, ...] | None = None
    factory: Callable[[], Path] | None = None

    @property
    def default(self):
        if self.factory is not None:
            return self.factory()
        return next(f.default for f in fields(self.owner) if f.name == self.field)


SETTINGS = {
    "corpus": Setting(ExperimentConfig, "corpus_path", Path, "corpus JSONL", factory=fixtures.corpus_path),
    "topics_file": Setting(ExperimentConfig, "topics_path", Path, "topic model JSON",
                           factory=fixtures.topic_model_path),
    "model": Setting(ExperimentConfig, "model_path", Path, "toy model JSON", factory=fixtures.toy_model_path),
    "out_dir": Setting(ExperimentConfig, "out_dir", Path, "output directory", factory=lambda: Path("sweep-out")),
    "method": Setting(ReweightConfig, "method", str, "reweighting method", tuple(METHOD_NAMES)),
    "c": Setting(ReweightConfig, "c", float, "shift constant"),
    "alpha": Setting(ReweightConfig, "alpha", float, "scaling factor"),
    "theta": Setting(ReweightConfig, "theta", float, "probability threshold"),
    "beta": Setting(ReweightConfig, "beta", float, "encouragement factor"),
    "strategy": Setting(GenerationConfig, "strategy", str, "decoding strategy", STRATEGIES),
    "beams": Setting(GenerationConfig, "num_beams", int, "beam width"),
    "top_k": Setting(GenerationConfig, "top_k", int, "top-k truncation"),
    "top_p": Setting(GenerationConfig, "top_p", float, "nucleus (top-p) truncation"),
    "min_tokens": Setting(GenerationConfig, "min_new_tokens", int, "minimum new tokens"),
    "max_tokens": Setting(GenerationConfig, "max_new_tokens", int, "maximum new tokens"),
    "seed": Setting(GenerationConfig, "seed", int, "master seed; each row's sampling seed derives from it and the row"),
    "top_n": Setting(ExperimentConfig, "top_n", int, "topic words to expand"),
    "limit": Setting(ExperimentConfig, "limit", int, "articles limit"),
    "steered": Setting(ExperimentConfig, "steered_policy", str, "steered topics", STEERED_POLICIES),
}
CONDITION_SETTINGS = tuple(k for k, s in SETTINGS.items() if s.owner is not ExperimentConfig)
INPUTS = ("corpus", "topics_file", "model")

# JSON types a config value may have, per setting type; ints also take integral floats.
_JSON_TYPES = {int: ((int, float), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), Path: ((str,), "a path string")}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors and reads "-1e-3" as a number."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponent forms and takes them for flags
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    """Register --<key> flags; a flag not given is absent from the namespace."""
    for key in keys:
        s = SETTINGS[key]
        parser.add_argument("--" + key.replace("_", "-"), type=s.type, choices=s.choices,
                            default=argparse.SUPPRESS, help=f"{s.help} (default: {s.default})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topicsteer", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("generate", help="decode one article and print summary + scores")
    _add_flags(p_gen, *INPUTS, *CONDITION_SETTINGS, "top_n")
    p_gen.add_argument("--article-id", default=None, help="article to use (default: first in corpus)")
    p_gen.add_argument("--topic", type=int, default=None, help="steered topic id (default: the article's tid1)")

    p_sweep = sub.add_parser("sweep", help="run a full experiment")
    _add_flags(p_sweep, *SETTINGS)
    p_sweep.add_argument("--config", type=Path, default=None, help="experiment config JSON")
    p_sweep.add_argument("--label", default=None, help="label for the flag-defined condition")

    p_merge = sub.add_parser("merge", help="join external scores into a report CSV")
    p_merge.add_argument("--report", type=Path, required=True)
    p_merge.add_argument("--external", type=Path, required=True)
    p_merge.add_argument("--out", type=Path, default=None, help="default: <report>.merged.csv")
    p_merge.add_argument("--rejects", type=Path, default=None, help="default: <report>.rejects.csv")

    p_expand = sub.add_parser("expand-topic", help="print a topic's token set")
    _add_flags(p_expand, *INPUTS, "top_n")
    p_expand.add_argument("--topic", type=int, required=True)

    return parser


def _file_value(key: str, value, where: str):
    """A config-file value as its setting's type; a mistyped value names its key."""
    setting = SETTINGS.get(key)
    kind = setting.type if setting else str  # a label
    choices = setting.choices if setting else None
    if value is None and setting is not None and setting.default is None:
        return None  # "limit": null means no limit, as the default does
    types, expected = _JSON_TYPES[kind]
    # type() rather than isinstance(): JSON true/false load as bool, a subclass of int
    if not (type(value) in types and (kind is not int or value % 1 == 0) and (not choices or value in choices)):
        raise ValueError(f"{where} key {key!r}: expected {f'one of {list(choices)}' if choices else expected}, "
                         f"got {value!r}")
    return as_real(value, f"{where} key {key!r}") if kind is float else kind(value)


def _file_values(entry: dict, allowed: set[str], where: str) -> dict:
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r}")
    return {key: _file_value(key, value, where) for key, value in entry.items()}


def _settings(args: argparse.Namespace, file_config: dict) -> dict:
    """Every setting and path: the flag if given, else the config-file key, else the default."""
    values = {key: s.default for key, s in SETTINGS.items()}
    values.update(_file_values(file_config, {"label", *SETTINGS}, "config"))
    values.update((key, value) for key, value in vars(args).items() if key in SETTINGS)
    return values


def _owned(owner: type, values: dict) -> dict:
    return {s.field: values[key] for key, s in SETTINGS.items() if s.owner is owner}


def _condition(values: dict, label: str | None) -> Condition:
    """A condition from resolved settings; unlabelled, it is named after its method."""
    method = values["method"]
    return Condition(
        label=label or (method if method != "none" else "baseline"),
        reweight=ReweightConfig(**{**_owned(ReweightConfig, values), "method": METHOD_NAMES[method]}),
        generation=GenerationConfig(**_owned(GenerationConfig, values)),
    )


def cmd_generate(args: argparse.Namespace) -> int:
    values = _settings(args, {})
    corpus = load_corpus(values["corpus"])
    topic_model = load_topic_model(values["topics_file"])
    model = load_toy_model(values["model"])
    if args.article_id is None:
        sample = corpus[0]
    else:
        matches = [s for s in corpus if s.article_id == args.article_id]
        if not matches:
            raise CorpusFormatError(f"article id {args.article_id!r} not found in corpus")
        sample = matches[0]
    steered_tid = sample.tid1 if args.topic is None else args.topic
    if steered_tid not in (sample.tid1, sample.tid2):
        raise CorpusFormatError(
            f"--topic {steered_tid} is not one of article {sample.article_id!r}'s topics "
            f"({sample.tid1}, {sample.tid2})"
        )
    condition = _condition(values, None)
    master_seed = values["seed"]
    result, row = run_row(model, topic_model, sample, sample.prompt(model.vocabulary), condition, steered_tid,
                          master_seed=master_seed, top_n=values["top_n"], token_sets={}, decodes={})
    record = result.to_record(model.vocabulary, condition.generation_for(master_seed, sample.article_id, steered_tid))
    record.update(
        article_id=sample.article_id,
        condition=condition.label,
        steered_tid=steered_tid,
        reweight=asdict(condition.reweight),
        scores={k: v for k, v in row.items() if k not in KEY_COLUMNS},
    )
    print(json.dumps(record, indent=2))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    file_config = read_json(args.config, ValueError) if args.config is not None else {}
    entries = file_config.pop("conditions", None)
    values = _settings(args, file_config)
    label = args.label or values.get("label")
    if entries is None:
        conditions = [_condition(values, label)]
    elif args.label is not None or "label" in values:
        raise ValueError("label names the flag-defined condition; label each conditions[] entry instead")
    elif not isinstance(entries, list):
        raise ValueError("config key 'conditions': expected a list of objects")
    else:
        conditions = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"conditions[{i}] must be an object")
            # no "seed": a row's sampling seed derives from the master seed, not from its condition
            own = _file_values(entry, {"label", *CONDITION_SETTINGS} - {"seed"}, f"conditions[{i}]")
            conditions.append(_condition({**values, **own}, own.get("label")))

    config = ExperimentConfig(
        conditions=tuple(conditions),
        master_seed=values["seed"],
        **_owned(ExperimentConfig, values),
    )
    result = run_sweep(config)
    print(f"report:     {result.report_path}")
    print(f"aggregates: {result.aggregate_path}")
    print(f"manifest:   {result.manifest_path}")
    print(f"rows: {result.rows_total} ({result.rows_ok} ok, {result.rows_error} failed)")
    if result.rows_total and result.rows_ok == 0:
        return 3
    if result.rows_error:
        return 2
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    out = args.out if args.out is not None else args.report.with_suffix(".merged.csv")
    rejects = args.rejects if args.rejects is not None else args.report.with_suffix(".rejects.csv")
    result = merge_external_scores(args.report, args.external, out, rejects)
    print(f"merged:  {result.out_path} ({result.rows} rows, metrics: {', '.join(result.metrics) or 'none'})")
    print(f"rejects: {result.rejects_path} ({result.rejected_rows} rows)")
    return 0


def cmd_expand_topic(args: argparse.Namespace) -> int:
    values = _settings(args, {})
    topic_model = load_topic_model(values["topics_file"])
    model = load_toy_model(values["model"])
    token_set = topic_token_set(args.topic, topic_model, model.vocabulary, values["top_n"])
    print(f"topic {args.topic}: {len(token_set)} tokens from top {values['top_n']} words")
    for tid in token_set.sorted_ids():
        print(f"{tid}\t{model.vocabulary.tokens[tid]!r}\t{token_set.provenance[tid]}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "sweep": cmd_sweep,
    "merge": cmd_merge,
    "expand-topic": cmd_expand_topic,
}

_CONFIG_ERRORS = (FileNotFoundError, ValueError, KeyError)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and --help
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except MergeConflictError as exc:
        print(f"topicsteer: merge failed: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"topicsteer: {error_text(exc)}", file=sys.stderr)
        return 1
    except Exception as exc:  # total failure
        print(f"topicsteer: unexpected failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
