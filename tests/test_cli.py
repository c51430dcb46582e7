import copy
import csv
import functools
import io
import json
import math
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicsteer import cli, experiment, fixtures
from topicsteer.cli import main
from topicsteer.experiment import SweepResult, derive_seed
from topicsteer.scoring import METRIC_COLUMNS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_defaults_to_shipped_fixtures(self, capsys):
        code, out, _err = run(
            capsys, "generate", "--method", "shift", "--c", "5",
            "--min-tokens", "5", "--max-tokens", "10",
        )
        assert code == 0
        record = json.loads(out)
        assert record["article_id"] == "a000"
        assert record["condition"] == "shift"
        assert record["reweight"]["method"] == "constant_shift"
        assert 5 <= len(record["tokens"]) <= 10
        assert "token_t1" in record["scores"]

    def test_explicit_article_and_topic(self, capsys):
        code, out, _err = run(
            capsys, "generate", "--article-id", "a003", "--topic", "1",
            "--min-tokens", "2", "--max-tokens", "4",
        )
        assert code == 0
        record = json.loads(out)
        assert record["article_id"] == "a003"
        assert record["steered_tid"] == 1

    def test_prints_the_row_sweep_writes(self, tmp_path, capsys, monkeypatch):
        # --seed is the master seed in both commands, so even a sampled row agrees.
        flags = ["--strategy", "sample", "--seed", "7", "--method", "shift", "--c", "5",
                 "--min-tokens", "3", "--max-tokens", "6"]
        code, out, _err = run(capsys, "generate", "--article-id", "a003", "--topic", "1", *flags)
        assert code == 0
        record = json.loads(out)
        assert record["config"]["seed"] == derive_seed(7, "a003", record["condition"], 1)

        sweep_tokens = {}
        inner = experiment.run_row

        def recording_run_row(model, topic_model, sample, prefix, condition, tid, **kwargs):
            result, row = inner(model, topic_model, sample, prefix, condition, tid, **kwargs)
            sweep_tokens[sample.article_id, condition.label, tid] = result.tokens
            return result, row

        monkeypatch.setattr(experiment, "run_row", recording_run_row)
        out_dir = tmp_path / "out"
        code, _out, _err = run(capsys, "sweep", "--limit", "4", "--out-dir", str(out_dir), *flags)
        assert code == 0
        with open(out_dir / "report.csv") as handle:
            rows = {(r["article_id"], r["condition"], r["steered_tid"]): r for r in csv.DictReader(handle)}
        row = rows["a003", record["condition"], "1"]
        assert record["scores"] == {column: row[column] for column in METRIC_COLUMNS}
        assert record["tokens"] == list(sweep_tokens["a003", record["condition"], 1])

    def test_prints_a_shared_row_the_sweep_writes(self, tmp_path, capsys, monkeypatch):
        # Greedy 'none' cannot depend on the steered topic, so the sweep decodes it
        # once per article and scores that decode for tid2 as well.
        sample = {s.article_id: s for s in experiment.load_corpus(fixtures.corpus_path())}["a003"]
        flags = ["--strategy", "greedy", "--seed", "7", "--method", "none", "--min-tokens", "3", "--max-tokens", "6"]
        code, out, _err = run(capsys, "generate", "--article-id", "a003", "--topic", str(sample.tid2), *flags)
        assert code == 0
        record = json.loads(out)

        calls, sweep_tokens = [], {}
        inner, inner_row = experiment.generate, experiment.run_row

        def recording_run_row(model, topic_model, sample, prefix, condition, tid, **kwargs):
            result, row = inner_row(model, topic_model, sample, prefix, condition, tid, **kwargs)
            sweep_tokens[sample.article_id, tid] = result.tokens
            return result, row

        monkeypatch.setattr(experiment, "generate", lambda *args: calls.append(args[3]) or inner(*args))
        monkeypatch.setattr(experiment, "run_row", recording_run_row)
        out_dir = tmp_path / "out"
        code, _out, _err = run(capsys, "sweep", "--limit", "4", "--out-dir", str(out_dir), *flags)
        assert code == 0
        assert len(calls) == json.loads((out_dir / "manifest.json").read_text())["decodes"] == 4
        with open(out_dir / "report.csv") as handle:
            rows = {(r["article_id"], r["condition"], r["steered_tid"]): r for r in csv.DictReader(handle)}
        row = rows["a003", record["condition"], str(sample.tid2)]
        assert record["scores"] == {column: row[column] for column in METRIC_COLUMNS}
        assert row != rows["a003", record["condition"], str(sample.tid1)]  # scored against its own topic
        assert record["tokens"] == list(sweep_tokens["a003", sample.tid2]) == list(sweep_tokens["a003", sample.tid1])

    def test_unknown_article_is_config_error(self, capsys):
        code, _out, err = run(capsys, "generate", "--article-id", "nope")
        assert code == 1
        assert "not found" in err

    def test_topic_not_of_article_is_config_error(self, capsys):
        code, _out, err = run(capsys, "generate", "--topic", "9")
        assert code == 1
        assert "not one of" in err


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        code, _out, err = run(capsys, "generate", "--bogus")
        assert code == 1
        assert "error" in err

    def test_missing_subcommand_exits_1(self, capsys):
        code, _out, _err = run(capsys)
        assert code == 1

    def test_bad_choice_exits_1(self, capsys):
        code, _out, _err = run(capsys, "generate", "--method", "sorcery")
        assert code == 1


class TestSweep:
    def test_flag_defined_condition(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _err = run(
            capsys, "sweep", "--method", "shift", "--c", "2", "--limit", "2",
            "--min-tokens", "2", "--max-tokens", "5", "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "aggregates.csv").exists()
        assert (out_dir / "manifest.json").exists()
        with open(out_dir / "report.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4  # 2 articles x 1 condition x 2 steered tids
        assert {row["condition"] for row in rows} == {"shift"}

    def test_config_file_conditions_with_flag_override(self, tmp_path, capsys):
        config = {
            "limit": 10,
            "min_tokens": 2,
            "max_tokens": 5,
            "steered": "tid1",
            "conditions": [
                {"label": "base", "method": "none"},
                {"label": "boost", "method": "threshold", "theta": 0.0, "beta": 1.0},
            ],
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, _out, _err = run(
            capsys, "sweep", "--config", str(config_path),
            "--limit", "3", "--out-dir", str(out_dir),
        )
        assert code == 0
        with open(out_dir / "report.csv") as handle:
            rows = list(csv.DictReader(handle))
        # flag --limit 3 beats the file's 10: 3 articles x 2 conditions x 1 tid
        assert len(rows) == 6
        assert {row["condition"] for row in rows} == {"base", "boost"}
        assert {row["steered_tid"] for row in rows} == {"0"}

    def test_missing_corpus_is_config_error(self, tmp_path, capsys):
        code, _out, err = run(capsys, "sweep", "--corpus", str(tmp_path / "missing.jsonl"))
        assert code == 1

    def test_partial_failures_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        rows = [
            {"article_id": "g", "article": "the court", "tid1": 0, "tid2": 1,
             "ref1": "court", "ref2": "orbit"},
            {"article_id": "b", "article": "the court", "tid1": 0, "tid2": 9,
             "ref1": "court", "ref2": "orbit"},
        ]
        corpus.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        code, _out, _err = run(
            capsys, "sweep", "--corpus", str(corpus), "--min-tokens", "2",
            "--max-tokens", "4", "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        with open(tmp_path / "out" / "report.csv") as handle:
            errors = [row["error"] for row in csv.DictReader(handle) if row["error"]]
        assert errors == ["unknown topic id 9"] * 2  # both rows of article "b"

    @pytest.mark.parametrize("under", [False, True], ids=["a file", "a path under a file"])
    def test_unusable_out_dir_is_config_error_before_any_row(self, tmp_path, capsys, monkeypatch, under):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out_dir = taken / "out" if under else taken
        calls = []
        monkeypatch.setattr(experiment, "generate", lambda *args: calls.append(args))
        code, _out, err = run(capsys, "sweep", "--limit", "2", "--min-tokens", "2", "--max-tokens", "4",
                               "--out-dir", str(out_dir))
        reason = "Not a directory" if under else "File exists"
        assert (code, err) == (1, f"topicsteer: cannot make output directory {out_dir}: {reason}\n")
        assert calls == []
        assert taken.read_text() == "not a directory\n"


class TestSweepCardinality:
    def test_none_method_single_condition(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _out, _err = run(
            capsys, "sweep", "--limit", "1", "--min-tokens", "2", "--max-tokens", "4",
            "--steered", "tid2", "--out-dir", str(out_dir),
        )
        assert code == 0
        with open(out_dir / "report.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["condition"] == "baseline"
        assert rows[0]["steered_tid"] == "1"


class TestMerge:
    def make_report(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code, _out, _err = run(
            capsys, "sweep", "--limit", "2", "--min-tokens", "2", "--max-tokens", "4",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        return out_dir / "report.csv"

    def test_merge_round_trip(self, tmp_path, capsys):
        report = self.make_report(tmp_path, capsys)
        external = tmp_path / "ext.csv"
        with open(external, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["article_id", "condition", "steered_tid", "metric", "value"])
            writer.writerow(["a000", "baseline", "0", "bertscore", "0.91"])
            writer.writerow(["a000", "baseline", "1", "bertscore", "0.91"])
            writer.writerow(["missing", "baseline", "0", "bertscore", "0.2"])
        code, out, _err = run(capsys, "merge", "--report", str(report), "--external", str(external))
        assert code == 0
        merged = report.with_suffix(".merged.csv")
        with open(merged) as handle:
            rows = list(csv.DictReader(handle))
        hit = [r for r in rows if r["article_id"] == "a000" and r["condition"] == "baseline"]
        assert all(r["bertscore"] == "0.91" for r in hit) and hit
        with open(report.with_suffix(".rejects.csv")) as handle:
            rejects = list(csv.DictReader(handle))
        assert len(rejects) == 1

    def test_conflict_exits_3(self, tmp_path, capsys):
        report = self.make_report(tmp_path, capsys)
        external = tmp_path / "ext.csv"
        with open(external, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["article_id", "condition", "steered_tid", "metric", "value"])
            writer.writerow(["a000", "baseline", "0", "m", "1"])
            writer.writerow(["a000", "baseline", "0", "m", "2"])
        code, _out, err = run(capsys, "merge", "--report", str(report), "--external", str(external))
        assert code == 3
        assert "merge failed" in err

    def test_short_external_line_exits_1(self, tmp_path, capsys):
        # the missing value is None, on which float() used to raise TypeError: exit 3, "unexpected failure"
        report = self.make_report(tmp_path, capsys)
        external = tmp_path / "ext.csv"
        external.write_text("article_id,condition,steered_tid,metric,value\na000,baseline,0,mauve\n")
        code, _out, err = run(capsys, "merge", "--report", str(report), "--external", str(external))
        assert code == 1
        assert "ext.csv:2:" in err and "value None is not a finite number" in err

    def test_external_without_steered_tid_exits_1(self, tmp_path, capsys):
        report = self.make_report(tmp_path, capsys)
        external = tmp_path / "ext.csv"
        external.write_text("article_id,condition,metric,value\na000,baseline,m,1\n")
        code, _out, err = run(capsys, "merge", "--report", str(report), "--external", str(external))
        assert code == 1
        assert "steered_tid" in err


class TestExpandTopic:
    def test_lists_tokens_with_provenance(self, capsys):
        code, out, _err = run(capsys, "expand-topic", "--topic", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert "topic 0: 100 tokens" in lines[0]
        assert len(lines) == 101
        assert any("court" in line for line in lines[1:])

    def test_unknown_topic_exits_1(self, capsys):
        code, _out, err = run(capsys, "expand-topic", "--topic", "77")
        assert code == 1
        assert err == "topicsteer: unknown topic id 77\n"


README_CONFIG = {
    "limit": 25,
    "steered": "both",
    "conditions": [
        {"label": "baseline", "method": "none"},
        {"label": "shift5", "method": "shift", "c": 5},
        {"label": "thresh", "method": "threshold", "theta": 0.005, "beta": 1, "strategy": "beam"},
    ],
}


def captured_config(*argv):
    """The ExperimentConfig a sweep invocation builds, without running it."""
    seen = []

    def fake_run_sweep(config):
        seen.append(config)
        return SweepResult(Path("report.csv"), Path("aggregates.csv"), Path("manifest.json"), 0, 0, 0)

    with mock.patch.object(cli, "run_sweep", fake_run_sweep), redirect_stdout(io.StringIO()):
        code = main(["sweep", *argv])
    assert code == 0
    return seen[0]


def identity(config):
    """ExperimentConfig.to_dict() without the input paths."""
    record = config.to_dict()
    for key in ("corpus_path", "topics_path", "model_path"):
        del record[key]
    return record


def generation_with(**overrides):
    generation = {"strategy": "greedy", "top_k": 50, "top_p": 0.95, "num_beams": 4,
                  "max_new_tokens": 90, "min_new_tokens": 80, "seed": 0}
    generation.update(overrides)
    return generation


def reweight_with(method="none", **overrides):
    values = {"method": method, "c": 0.0, "alpha": 1.0, "theta": 0.005, "beta": 0.0}
    values.update(overrides)
    return values


class TestSweepConfigIdentity:
    """Literal ExperimentConfig.to_dict() values, as the resolution produced them before
    flags and config keys shared one settings table."""

    def test_flags_only(self):
        config = captured_config(
            "--method", "threshold", "--theta", "0.01", "--beta", "2", "--strategy", "beam",
            "--beams", "3", "--top-k", "40", "--top-p", "0.9", "--min-tokens", "5",
            "--max-tokens", "9", "--seed", "7", "--top-n", "20", "--limit", "3", "--steered", "tid2",
        )
        assert identity(config) == {
            "conditions": [{
                "label": "threshold",
                "reweight": reweight_with("threshold_selection", theta=0.01, beta=2.0),
                "generation": {"strategy": "beam", "top_k": 40, "top_p": 0.9, "num_beams": 3,
                               "max_new_tokens": 9, "min_new_tokens": 5, "seed": 7},
            }],
            "limit": 3, "steered_policy": "tid2", "master_seed": 7, "top_n": 20,
        }

    def test_no_flags(self):
        assert identity(captured_config()) == {
            "conditions": [{"label": "baseline", "reweight": reweight_with(), "generation": generation_with()}],
            "limit": None, "steered_policy": "both", "master_seed": 0, "top_n": 25,
        }

    def test_readme_config(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(README_CONFIG))
        assert identity(captured_config("--config", str(path))) == {
            "conditions": [
                {"label": "baseline", "reweight": reweight_with(), "generation": generation_with()},
                {"label": "shift5", "reweight": reweight_with("constant_shift", c=5.0),
                 "generation": generation_with()},
                {"label": "thresh", "reweight": reweight_with("threshold_selection", beta=1.0),
                 "generation": generation_with(strategy="beam")},
            ],
            "limit": 25, "steered_policy": "both", "master_seed": 0, "top_n": 25,
        }

    def test_readme_config_with_flag_overrides(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(README_CONFIG))
        config = captured_config("--config", str(path), "--min-tokens", "85", "--seed", "3",
                                 "--steered", "tid1")
        assert identity(config) == {
            "conditions": [
                {"label": "baseline", "reweight": reweight_with(),
                 "generation": generation_with(min_new_tokens=85, seed=3)},
                {"label": "shift5", "reweight": reweight_with("constant_shift", c=5.0),
                 "generation": generation_with(min_new_tokens=85, seed=3)},
                {"label": "thresh", "reweight": reweight_with("threshold_selection", beta=1.0),
                 "generation": generation_with(strategy="beam", min_new_tokens=85, seed=3)},
            ],
            "limit": 25, "steered_policy": "tid1", "master_seed": 3, "top_n": 25,
        }


finite = {"allow_nan": False, "allow_infinity": False}
SETTING_VALUES = st.fixed_dictionaries({}, optional={
    "method": st.sampled_from(["none", "shift", "scale", "threshold"]),
    "c": st.floats(-50, 50, **finite),
    "alpha": st.floats(-5, 5, **finite),
    "theta": st.floats(0, 1, **finite),
    "beta": st.floats(0, 20, **finite),
    "strategy": st.sampled_from(["greedy", "sample", "beam"]),
    "beams": st.integers(1, 8),
    "top_k": st.integers(1, 300),
    "top_p": st.floats(0, 1, exclude_min=True, **finite),
    "min_tokens": st.integers(0, 80),
    "max_tokens": st.integers(90, 200),
    "seed": st.integers(0, 2 ** 40),
    "top_n": st.integers(1, 40),
    "limit": st.integers(1, 25),
    "steered": st.sampled_from(["tid1", "tid2", "both"]),
})


@settings(max_examples=60, deadline=None)
@given(SETTING_VALUES)
def test_flags_and_config_keys_build_equal_conditions(values):
    flags = [arg for key, value in values.items() for arg in ("--" + key.replace("_", "-"), str(value))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        path.write_text(json.dumps(values))
        from_file = captured_config("--config", str(path))
    from_flags = captured_config(*flags)
    assert from_flags.conditions == from_file.conditions
    assert from_flags.to_dict() == from_file.to_dict()


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+2", "-.5e1", "-3"])
def test_negative_numbers_in_exponent_form_are_values(value):
    separate = captured_config("--method", "shift", "--c", value)
    joined = captured_config("--method", "shift", f"--c={value}")
    assert separate.to_dict() == joined.to_dict()
    assert separate.conditions[0].reweight.c == float(value)


class TestConfigRejections:
    """Config input that used to be ignored or coerced exits 1 naming the key."""

    def sweep_with(self, tmp_path, capsys, config, *flags):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        return run(capsys, "sweep", "--config", str(path), "--out-dir", str(tmp_path / "out"), *flags)

    @pytest.mark.parametrize("config, key", [
        ({"min_token": 5}, "min_token"),
        ({"conditions": [{"lable": "x", "method": "shift"}]}, "lable"),
        ({"conditions": [{"method": "shift", "limit": 3}]}, "limit"),
        ({"top_k": 2.7}, "top_k"),
        ({"top_k": True}, "top_k"),
        ({"conditions": [{"method": "none", "beams": False}]}, "beams"),
        ({"top_p": "0.9"}, "top_p"),
        ({"limit": "1"}, "limit"),
        ({"method": "sorcery"}, "method"),
        ({"conditions": {"method": "none"}}, "conditions"),
        ({"conditions": [{"method": "none", "seed": 1}]}, "seed"),
        ({"conditions": [{"method": "shift", "c": 10**400}]}, "c"),
    ])
    def test_bad_key_or_value_exits_1(self, tmp_path, capsys, config, key):
        code, _out, err = self.sweep_with(tmp_path, capsys, config)
        assert code == 1
        assert repr(key) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [b'{"limit": 1, oops}', b"\xff\xfe{}"], ids=["syntax", "not-utf8"])
    def test_malformed_config_names_file(self, tmp_path, capsys, content):
        path = tmp_path / "sweep.json"
        path.write_bytes(content)
        code, _out, err = run(capsys, "sweep", "--config", str(path), "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert f"{path}: not valid JSON" in err
        assert not (tmp_path / "out").exists()

    def test_label_flag_with_conditions_list_exits_1(self, tmp_path, capsys):
        config = {"conditions": [{"method": "none"}]}
        code, _out, err = self.sweep_with(tmp_path, capsys, config, "--label", "mine")
        assert code == 1
        assert "label" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_beta_exits_1(self, tmp_path, capsys):
        code, _out, err = run(capsys, "sweep", "--method", "threshold", "--beta", "inf",
                              "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert "beta" in err

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_negative_seed_exits_1_naming_seed(self, tmp_path, capsys, command):
        code, _out, err = run(capsys, command, "--strategy", "sample", "--seed", "-1",
                              *(["--out-dir", str(tmp_path / "out")] if command == "sweep" else []))
        assert code == 1
        assert "seed must be >= 0" in err
        assert not (tmp_path / "out").exists()


def test_help_prints_every_derived_default(capsys):
    code, out, _err = run(capsys, "sweep", "--help")
    assert code == 0
    for default in ("(default: 0.95)", "(default: 50)", "(default: 4)", "(default: 80)",
                    "(default: 90)", "(default: 25)", "(default: greedy)", "(default: both)"):
        assert default in out


# One value of an input file or sweep config, replaced by something no input may hold.
_MALFORMED = st.sampled_from([None, True, "x", [1], math.nan, -math.inf, 10**400])
_INPUT_FILES = {"model": fixtures.toy_model_path(), "topics_file": fixtures.topic_model_path(),
                "corpus": fixtures.corpus_path()}
_SWEEP_CONFIG = {
    "top_p": 0.9,
    "conditions": [
        {"label": "shift", "method": "shift", "c": 2.0},
        {"label": "scale", "method": "scale", "alpha": 0.5, "top_p": 0.8},
        {"label": "threshold", "method": "threshold", "theta": 0.01, "beta": 1.0},
    ],
}
# Strengths and top_p only: a huge beam width, top_k or token window is valid and only makes a run long.
_CONFIG_VALUE_PATHS = [("top_p",), ("conditions", 0, "c"), ("conditions", 1, "alpha"), ("conditions", 1, "top_p"),
                       ("conditions", 2, "theta"), ("conditions", 2, "beta")]


@functools.cache
def _shipped_document(key: str):
    """A shipped input parsed as JSON; the corpus is the list of its lines."""
    text = _INPUT_FILES[key].read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()] if key == "corpus" else json.loads(text)


def _dump(key: str, document) -> str:
    if key == "corpus":
        return "".join(json.dumps(line) + "\n" for line in document)
    return json.dumps(document)


@st.composite
def _value_paths(draw, document) -> tuple:
    """A path to one value of ``document``: a top-level entry, then one level deeper with probability 1/2."""
    path, node = (), document
    while isinstance(node, (dict, list)) and node and (not path or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path, node = (*path, key), node[key]
    return path


def _replaced(node, path: tuple, value):
    """A copy of ``node`` with the value at ``path`` replaced; only the containers on the path are copied."""
    if not path:
        return value
    out = copy.copy(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


_MERGE_FILES = ("report", "external")
# A file-level fault: the input path names a directory, nothing, an empty file or bytes that are not UTF-8.
# A file that cannot be opened for lack of permission stays untested: tests run as root, which opens it anyway.
_FILE_FAULTS = ("directory", "missing", "empty", "not-utf8")


@functools.cache
def _report_text() -> str:
    """A small sweep's report.csv, the report that merge reads."""
    with tempfile.TemporaryDirectory() as tmp:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            main(["sweep", "--limit", "1", "--min-tokens", "1", "--max-tokens", "4", "--out-dir", tmp])
        return (Path(tmp) / "report.csv").read_text(encoding="utf-8")


def _break_file(path: Path, fault: str) -> None:
    data = path.read_bytes()
    path.unlink()
    if fault == "directory":
        path.mkdir()
    elif fault == "empty":
        path.write_bytes(b"")
    elif fault == "not-utf8":
        path.write_bytes(b"\xff\xfe" + data)  # a UTF-16 byte-order mark


def _run_with_broken_input(tmp: Path, command: str, key: str, fault) -> tuple[int, str]:
    """Run ``command`` on copies of the shipped inputs, a sweep config and a merge pair, one of them broken.

    ``fault`` is a file-level fault, or a (path, value) pair: the value at
    that path of the parsed input replaced. Returns the exit code and stderr.
    """
    files = {k: tmp / p.name for k, p in _INPUT_FILES.items()}
    for k, p in _INPUT_FILES.items():
        shutil.copyfile(p, files[k])
    files["config"] = tmp / "sweep.json"
    files["config"].write_text(json.dumps(_SWEEP_CONFIG))
    files["report"] = tmp / "report.csv"
    files["report"].write_text(_report_text(), encoding="utf-8")
    files["external"] = tmp / "external.csv"
    files["external"].write_text("article_id,condition,steered_tid,metric,value\na000,baseline,0,m,1\n")
    if isinstance(fault, str):
        _break_file(files[key], fault)
    elif key == "config":
        files[key].write_text(json.dumps(_replaced(_SWEEP_CONFIG, *fault)))
    else:
        files[key].write_text(_dump(key, _replaced(_shipped_document(key), *fault)), encoding="utf-8")
    inputs = ["--topics-file", str(files["topics_file"]), "--model", str(files["model"])]
    window = ["--min-tokens", "1", "--max-tokens", "4"]
    argv = {
        "generate": ["generate", *inputs, "--corpus", str(files["corpus"]), *window],
        "expand-topic": ["expand-topic", *inputs, "--topic", "0"],
        "sweep": ["sweep", *inputs, "--corpus", str(files["corpus"]), "--config", str(files["config"]),
                  "--limit", "1", *window, "--out-dir", str(tmp / "out")],
        "merge": ["merge", "--report", str(files["report"]), "--external", str(files["external"]),
                  "--out", str(tmp / "merged.csv"), "--rejects", str(tmp / "rejects.csv")],
    }[command]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def _malformed_runs(draw) -> tuple:
    """(command, key of the broken input, file-level fault or (path, replacement))."""
    key = draw(st.sampled_from([*_INPUT_FILES, "config", *_MERGE_FILES]))
    if key in _MERGE_FILES:
        return "merge", key, draw(st.sampled_from(_FILE_FAULTS))
    command = "sweep" if key == "config" else draw(st.sampled_from(["generate", "expand-topic", "sweep"]))
    if command == "expand-topic" and key == "corpus":
        command = "generate"  # expand-topic reads no corpus
    if draw(st.integers(0, 2)) == 0:
        return command, key, draw(st.sampled_from(_FILE_FAULTS))
    if key == "config":
        return command, key, (draw(st.sampled_from(_CONFIG_VALUE_PATHS)), draw(_MALFORMED))
    return command, key, (draw(_value_paths(_shipped_document(key))), draw(_MALFORMED))


@settings(max_examples=100, deadline=None)
@given(_malformed_runs())
def test_malformed_input_is_never_an_unexpected_failure(run_case):
    command, key, fault = run_case
    with tempfile.TemporaryDirectory() as tmp:
        _code, err = _run_with_broken_input(Path(tmp), command, key, fault)
    assert "unexpected failure" not in err


@pytest.mark.parametrize("fault", _FILE_FAULTS)
@pytest.mark.parametrize("command, key", [("generate", "model"), ("expand-topic", "topics_file"),
                                          ("generate", "corpus"), ("sweep", "config"),
                                          ("merge", "report"), ("merge", "external")])
def test_file_fault_exits_1_naming_the_file(tmp_path, command, key, fault):
    code, err = _run_with_broken_input(tmp_path, command, key, fault)
    assert code == 1
    name = {"topics_file": "topics.json", "model": "toy_model.json", "corpus": "corpus.jsonl",
            "config": "sweep.json", "report": "report.csv", "external": "external.csv"}[key]
    assert f"{tmp_path / name}:" in err
    if fault == "not-utf8":
        assert "line 1:" in err
