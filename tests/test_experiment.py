import csv
import dataclasses
import hashlib
import json
import logging
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

import topicsteer
from topicsteer import decoding, experiment, fixtures, scoring
from topicsteer.decoding import GenerationConfig
from topicsteer.experiment import (
    Condition,
    CorpusFormatError,
    CorpusSample,
    ExperimentConfig,
    MergeConflictError,
    RowContext,
    derive_seed,
    load_corpus,
    merge_external_scores,
    run_sweep,
)
from topicsteer.models import NonFiniteLogitsError, ToyMarkovModel, Vocabulary, load_toy_model
from topicsteer.reweight import ProcessorChain, ReweightConfig, build_chain
from topicsteer.topics import TopicModel, load_topic_model, topic_token_set

from conftest import make_vocab
from reference_decoding import REFERENCE
from test_decoding import phase_of


def write_jsonl(path: Path, rows: list[dict]) -> Path:
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


def sample_dict(i: int, **overrides) -> dict:
    row = {
        "article_id": f"a{i}",
        "article": "the court was in orbit",
        "tid1": 0,
        "tid2": 1,
        "ref1": "the court and the judge",
        "ref2": "the rocket and the orbit",
    }
    row.update(overrides)
    return row


class TestLoadCorpus:
    def test_limit_keeps_file_order(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [sample_dict(i) for i in range(3)])
        samples = load_corpus(path, limit=2)
        assert [s.article_id for s in samples] == ["a0", "a1"]

    def test_equal_tids_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [sample_dict(0, tid2=0)])
        with pytest.raises(CorpusFormatError, match="must differ"):
            load_corpus(path)

    def test_duplicate_article_id(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [sample_dict(0), sample_dict(0)])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(path)

    def test_missing_key(self, tmp_path):
        row = sample_dict(0)
        del row["ref2"]
        path = write_jsonl(tmp_path / "c.jsonl", [row])
        with pytest.raises(CorpusFormatError, match="missing keys"):
            load_corpus(path)

    def test_empty_reference(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [sample_dict(0, ref1="")])
        with pytest.raises(CorpusFormatError, match="non-empty"):
            load_corpus(path)

    @pytest.mark.parametrize("key, bad", [("tid1", 1.7), ("tid2", True), ("tid1", "0"), ("tid2", 1.0), ("tid1", None)],
                             ids=repr)
    def test_non_integer_topic_id_names_line_and_key(self, tmp_path, key, bad):
        # int() would load 1.7 and true as topic 1 and "0" as topic 0
        path = write_jsonl(tmp_path / "c.jsonl", [sample_dict(0), sample_dict(1, **{key: bad})])
        with pytest.raises(CorpusFormatError, match=rf"c\.jsonl:2: {key} .* is not an integer"):
            load_corpus(path)

    @pytest.mark.parametrize("key, bad", [("ref1", None), ("article", ["a"]), ("article_id", 7), ("ref2", False)],
                             ids=repr)
    def test_non_string_text_names_line_and_key(self, tmp_path, key, bad):
        # str() used to load null as the text "None", an array as its repr and 7 as "7"
        path = write_jsonl(tmp_path / "c.jsonl", [sample_dict(0), sample_dict(1, **{key: bad})])
        with pytest.raises(CorpusFormatError, match=rf"c\.jsonl:2: {key} .* is not a string"):
            load_corpus(path)

    def test_article_id_with_the_seed_separator_names_line_and_value(self, tmp_path):
        # derive_seed joins its parts with "\x1f", so this id would share seeds with another id and label
        path = write_jsonl(tmp_path / "c.jsonl", [sample_dict(0), sample_dict(1, article_id="a\x1fb")])
        with pytest.raises(CorpusFormatError, match=re.escape("c.jsonl:2: article_id 'a\\x1fb' holds '\\x1f'")):
            load_corpus(path)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_rejected(self, tmp_path, limit):
        # both used to load one sample
        path = write_jsonl(tmp_path / "c.jsonl", [sample_dict(i) for i in range(3)])
        with pytest.raises(ValueError, match="limit must be >= 1"):
            load_corpus(path, limit)

    @pytest.mark.parametrize("limit", [1.5, True], ids=repr)
    def test_non_integer_limit_rejected(self, tmp_path, limit):
        # 1.5 used to load two samples and True one
        path = write_jsonl(tmp_path / "c.jsonl", [sample_dict(i) for i in range(3)])
        with pytest.raises(TypeError, match="limit .* is not an integer"):
            load_corpus(path, limit)

    def test_invalid_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(sample_dict(0)) + "\n{not json\n")
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:2: not valid JSON: "):
            load_corpus(path)

    def test_shipped_corpus_has_25_samples(self):
        samples = load_corpus(fixtures.corpus_path())
        assert len(samples) == 25
        assert len({s.article_id for s in samples}) == 25


def fast_generation(strategy="greedy", **kw):
    return GenerationConfig(strategy=strategy, min_new_tokens=2, max_new_tokens=6,
                            top_k=10, top_p=0.95, **kw)


def make_config(tmp_path, conditions, **overrides) -> ExperimentConfig:
    values = dict(
        corpus_path=fixtures.corpus_path(),
        topics_path=fixtures.topic_model_path(),
        model_path=fixtures.toy_model_path(),
        out_dir=tmp_path / "out",
        conditions=tuple(conditions),
        limit=2,
        steered_policy="both",
        master_seed=11,
    )
    values.update(overrides)
    return ExperimentConfig(**values)


def benchmark_grid():
    """The nine conditions of the benchmark grid: {greedy, sample, beam} x {none, shift 5, threshold}."""
    methods = {
        "none": ReweightConfig(),
        "shift5": ReweightConfig(method="constant_shift", c=5.0),
        "threshold": ReweightConfig(method="threshold_selection", theta=0.005, beta=1.0),
    }
    return [Condition(f"{strategy}-{label}", reweight, GenerationConfig(strategy=strategy))
            for strategy in ("greedy", "sample", "beam") for label, reweight in methods.items()]


def three_conditions():
    return [
        Condition("baseline", ReweightConfig(method="none"), fast_generation()),
        Condition("shift2", ReweightConfig(method="constant_shift", c=2.0), fast_generation()),
        Condition("sample", ReweightConfig(method="none"), fast_generation(strategy="sample")),
    ]


class TestExperimentConfigTypes:
    @pytest.mark.parametrize("field, bad", [("limit", 1.5), ("limit", True), ("top_n", 2.5), ("top_n", "25"),
                                            ("master_seed", 1.5), ("master_seed", False)], ids=repr)
    def test_mistyped_count_names_field(self, tmp_path, field, bad):
        # top_n=2.5 used to fail every row with "slice indices must be integers"
        with pytest.raises(TypeError, match=f"{field} .* is not an integer"):
            make_config(tmp_path, three_conditions(), **{field: bad})

    def test_negative_master_seed_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            make_config(tmp_path, three_conditions(), master_seed=-1)

    def test_numpy_counts_stored_as_python_ints(self, tmp_path):
        config = make_config(tmp_path, three_conditions(), limit=np.int64(2), top_n=np.int32(5),
                             master_seed=np.uint8(3))
        assert [type(v) for v in (config.limit, config.top_n, config.master_seed)] == [int, int, int]
        assert run_sweep(config).rows_error == 0

    def test_numpy_reals_stored_as_python_floats(self, tmp_path):
        # A float32 strength or top_p used to decode every row, then fail to write manifest.json.
        reweight = ReweightConfig(method="constant_shift", c=np.float32(5.0), alpha=np.float64(0.5),
                                  theta=np.float32(0.25), beta=2)
        generation = GenerationConfig(strategy="sample", top_p=np.float32(0.9), min_new_tokens=2, max_new_tokens=4)
        values = (reweight.c, reweight.alpha, reweight.theta, reweight.beta, generation.top_p)
        assert [type(v) for v in values] == [float] * 5
        assert values == (5.0, 0.5, 0.25, 2.0, float(np.float32(0.9)))
        result = run_sweep(make_config(tmp_path, [Condition("shift", reweight, generation)]))
        assert result.rows_error == 0
        condition = json.loads(result.manifest_path.read_text())["config"]["conditions"][0]
        assert (condition["reweight"]["c"], condition["generation"]["top_p"]) == (5.0, float(np.float32(0.9)))


class TestRunSweep:
    def test_row_cardinality(self, tmp_path):
        result = run_sweep(make_config(tmp_path, three_conditions()))
        # 2 samples x 3 conditions x 2 steered tids
        assert result.rows_total == 12
        assert result.rows_ok == 12
        with open(result.report_path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12
        assert all(row["error"] == "" for row in rows)

    def test_each_distinct_decode_generates_once_and_each_distinct_summary_scores_once(self, tmp_path, monkeypatch):
        # The benchmark times rows by swapping out these two module names.
        # Greedy 'none' ("baseline") decodes the same text for both topics, so
        # its tid2 row reads the tid1 row's result without a generate call. A
        # row calls score_summary only for a (tokens, tid1, tid2) no earlier row had.
        calls, keys = [], []
        inner_generate, inner_score, inner_row = experiment.generate, experiment.score_summary, RowContext.run_row

        def generate(*args, **kwargs):
            calls.append(("generate", len(args), sorted(kwargs)))
            return inner_generate(*args, **kwargs)

        def score_summary(*args, **kwargs):
            calls.append(("score_summary",))
            return inner_score(*args, **kwargs)

        def run_row(context, sample, condition, tid):
            result, row = inner_row(context, sample, condition, tid)
            calls.append(("row",))
            keys.append((result.tokens, sample.tid1, sample.tid2))
            return result, row

        monkeypatch.setattr(experiment, "generate", generate)
        monkeypatch.setattr(experiment, "score_summary", score_summary)
        monkeypatch.setattr(RowContext, "run_row", run_row)
        result = run_sweep(make_config(tmp_path, three_conditions()))
        assert (result.rows_total, result.rows_ok) == (12, 12)
        generated = [True, False, True, True, True, True] * 2  # baseline tid1, tid2; shift2 and sample for each tid
        expected, seen = [], set()
        for generates, key in zip(generated, keys, strict=True):
            expected += [("generate", 4, [])] * generates + [("score_summary",)] * (key not in seen) + [("row",)]
            seen.add(key)
        assert calls == expected
        assert calls.count(("score_summary",)) == len(seen) <= 10
        assert json.loads(result.manifest_path.read_text())["decodes"] == 10

    def test_byte_identical_reruns(self, tmp_path):
        first = run_sweep(make_config(tmp_path, three_conditions(), out_dir=tmp_path / "one"))
        second = run_sweep(make_config(tmp_path, three_conditions(), out_dir=tmp_path / "two"))
        assert first.report_path.read_bytes() == second.report_path.read_bytes()
        assert first.aggregate_path.read_bytes() == second.aggregate_path.read_bytes()
        m1 = json.loads(first.manifest_path.read_text())
        m2 = json.loads(second.manifest_path.read_text())
        m1.pop("created_at"), m2.pop("created_at")
        assert m1 == m2

    def test_master_seed_changes_sampled_rows(self, tmp_path):
        conditions = [Condition("sample", ReweightConfig(), fast_generation(strategy="sample"))]
        one = run_sweep(make_config(tmp_path, conditions, out_dir=tmp_path / "s1", master_seed=1))
        two = run_sweep(make_config(tmp_path, conditions, out_dir=tmp_path / "s2", master_seed=2))
        assert one.report_path.read_bytes() != two.report_path.read_bytes()

    def test_manifest_reconciles(self, tmp_path):
        result = run_sweep(make_config(tmp_path, three_conditions()))
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["rows_expected"] == manifest["rows_written"] == 12
        assert manifest["rows_ok"] + manifest["rows_error"] == manifest["rows_written"]
        assert sum(manifest["rows_per_condition"].values()) == 12

    def test_manifest_records_the_versions_outside_the_config_hash(self, tmp_path, monkeypatch):
        def manifest(name):
            result = run_sweep(make_config(tmp_path, three_conditions(), out_dir=tmp_path / name))
            return json.loads(result.manifest_path.read_text())

        first = manifest("one")
        dispatch = None  # numpy < 2.0 does not report it
        if int(np.__version__.split(".")[0]) >= 2:
            from numpy.lib.introspect import opt_func_info
            dispatch = opt_func_info(func_name="^(exp|log)$", signature="float64")
            assert [(name, list(loops)) for name, loops in sorted(dispatch.items())] == [("exp", ["dd"]), ("log", ["dd"])]
            assert all(loop["current"] for loops in dispatch.values() for loop in loops.values())
        assert first["versions"] == {"python": platform.python_version(), "numpy": np.__version__,
                                     "topicsteer": topicsteer.__version__, "numpy_dispatch": dispatch}
        monkeypatch.setattr(experiment, "__version__", "0.0.0-other")
        second = manifest("two")
        assert second["versions"]["topicsteer"] == "0.0.0-other"
        assert second["config_hash"] == first["config_hash"]

    def test_per_row_errors_recorded_and_run_continues(self, tmp_path):
        # one sample references a topic the model does not have: its rows
        # fail with an error column entry while the others complete
        corpus_path = write_jsonl(
            tmp_path / "c.jsonl",
            [sample_dict(0), sample_dict(1, tid2=7), sample_dict(2)],
        )
        config = make_config(tmp_path, three_conditions(), corpus_path=corpus_path, limit=3)
        result = run_sweep(config)
        assert result.rows_total == 18
        assert result.rows_error == 6
        assert result.rows_ok == 12
        with open(result.report_path) as handle:
            rows = list(csv.DictReader(handle))
        failed = [r for r in rows if r["error"]]
        assert len(failed) == 6
        assert all(r["article_id"] == "a1" for r in failed)
        assert all(r["error"] == "unknown topic id 7" for r in failed)

    def test_nan_logits_fail_only_their_row(self, tmp_path, monkeypatch):
        # The provider's logits hold a NaN whenever it continues article a1's prompt.
        corpus = load_corpus(fixtures.corpus_path(), limit=3)
        model = load_toy_model(fixtures.toy_model_path())
        faulty = NaNAfterPrompt(model, corpus[1].prompt(model.vocabulary))
        monkeypatch.setattr(experiment, "load_toy_model", lambda path: faulty)
        result = run_sweep(make_config(tmp_path, three_conditions()[1:2], limit=3, steered_policy="tid1"))
        assert (result.rows_total, result.rows_error) == (3, 1)
        with open(result.report_path) as handle:
            errors = {row["article_id"]: row["error"] for row in csv.DictReader(handle)}
        assert errors == {corpus[0].article_id: "", corpus[1].article_id: "provider logits hold NaN or +inf at step 0, "
                          "row 0", corpus[2].article_id: ""}

    def test_aggregates_match_hand_computation(self, tmp_path):
        result = run_sweep(make_config(tmp_path, three_conditions()))
        with open(result.report_path) as handle:
            rows = [r for r in csv.DictReader(handle) if not r["error"]]
        with open(result.aggregate_path) as handle:
            aggregates = {(r["condition"], r["steered_tid"]): r for r in csv.DictReader(handle)}
        group = [r for r in rows if r["condition"] == "shift2" and r["steered_tid"] == "0"]
        expected = sum(float(r["token_t1"]) for r in group) / len(group)
        assert float(aggregates[("shift2", "0")]["token_t1_mean"]) == pytest.approx(expected)
        assert int(aggregates[("shift2", "0")]["n"]) == len(group)

    def test_steered_policy_single_tid(self, tmp_path):
        config = make_config(tmp_path, three_conditions(), steered_policy="tid1")
        result = run_sweep(config)
        assert result.rows_total == 6
        with open(result.report_path) as handle:
            rows = list(csv.DictReader(handle))
        assert all(row["steered_tid"] == "0" for row in rows)

    @pytest.mark.parametrize("policy", ["tid1", "tid2", "both"])
    def test_each_topic_expanded_once_per_sweep(self, tmp_path, monkeypatch, policy):
        expanded = []

        def counting(tid, *args, **kwargs):
            expanded.append(tid)
            return topic_token_set(tid, *args, **kwargs)

        monkeypatch.setattr(experiment, "topic_token_set", counting)
        monkeypatch.setattr(scoring, "topic_token_set", counting)
        result = run_sweep(make_config(tmp_path, three_conditions()[1:2], limit=3, steered_policy=policy))
        assert result.rows_error == 0
        assert sorted(expanded) == [0, 1]

    def test_benchmark_grid_report_is_byte_identical(self, tmp_path):
        # The digest is the sha256 of report.csv from this same sweep, run with the
        # per-method reweighting code that tests/reference_reweight.py keeps verbatim.
        # Any change to what decoding, reweighting or scoring writes moves it.
        result = run_sweep(make_config(tmp_path, benchmark_grid(), limit=4, steered_policy="both", master_seed=1))
        assert (result.rows_total, result.rows_error) == (72, 0)
        digest = hashlib.sha256(result.report_path.read_bytes()).hexdigest()
        assert digest == "13bc8512ce4cbec606d5c89184f260458b40df64aa4f7c163073b06d0e577677"

    def test_full_benchmark_grid_is_byte_identical(self, tmp_path, monkeypatch):
        # The whole fixture: 25 articles x 9 conditions x 2 topics, the sweep of the
        # fixture-sweep benchmark workload at master seed 1. Both digests were taken
        # before sampling and beam search selected from one truncation step, and
        # before the tid2 rows of greedy-none and beam-none shared their tid1 decode.
        # Its 450 rows hold 277 distinct summaries and 360 distinct (summary, reference)
        # pairs, and a sweep scores each of them once.
        counts = Counter()

        def counted(name, inner):
            return lambda *args, **kwargs: counts.update([name]) or inner(*args, **kwargs)

        for owner, name in ((experiment, "generate"), (experiment, "score_summary"), (scoring, "_rouge_l"),
                            (Vocabulary, "decode")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        result = run_sweep(make_config(tmp_path, benchmark_grid(), limit=None, steered_policy="both", master_seed=1))
        assert (result.rows_total, result.rows_error) == (450, 0)
        assert counts["generate"] == json.loads(result.manifest_path.read_text())["decodes"] == 450 - 2 * 25
        assert (counts["score_summary"], counts["_rouge_l"]) == (277, 360)
        assert counts["decode"] <= 360
        assert hashlib.sha256(result.report_path.read_bytes()).hexdigest() == (
            "d7b933c3ec5c9a43631206b8f80773fc427f2fcaf4277da06da7522be6604e9f")
        assert hashlib.sha256(result.aggregate_path.read_bytes()).hexdigest() == (
            "eb3154a8265ec5ecdad15364099cb3329d6b8bb264311f818dc49bad7b1aaf28")

    def test_grid_digests_hold_at_numpy_baseline_dispatch(self, tmp_path):
        # numpy picks its exp and log kernels by CPU feature at import, and their last bits differ between
        # dispatch targets. Both digest tests above run again in a child process that switches off every
        # target above numpy's baseline that this CPU has, and first checks that numpy did switch them off.
        targets = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
        if not targets:
            pytest.skip(f"numpy runs no dispatch target above its baseline {umath.__cpu_baseline__} here")
        tests = [f"{__file__}::TestRunSweep::{name}" for name in (
            "test_benchmark_grid_report_is_byte_identical", "test_full_benchmark_grid_is_byte_identical")]
        child = (f"from {umath.__name__} import __cpu_features__ as have\n"
                 f"assert not any(have[name] for name in {targets!r}), 'numpy kept a target on'\n"
                 f"import pytest, sys\n"
                 f"sys.exit(pytest.main({['-q', '-p', 'no:cacheprovider', '--basetemp', str(tmp_path), *tests]!r}))")
        package_root = str(Path(experiment.__file__).parents[1])
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
               "PYTHONPATH": os.pathsep.join([package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, f"with {targets} off:\n{done.stdout}{done.stderr}"
        assert "2 passed" in done.stdout


class NaNAfterPrompt:
    """A ``next_logits``-only provider: ``model``'s logits, with a NaN at id 5 after a prefix starting ``prompt``."""

    def __init__(self, model, prompt):
        self.model, self.vocabulary, self.prompt = model, model.vocabulary, list(prompt)

    def next_logits(self, prefix):
        row = self.model.next_logits(prefix)
        if list(prefix[: len(self.prompt)]) == self.prompt:
            row[5] = np.nan
        return row


@pytest.mark.parametrize("condition", three_conditions(), ids=lambda c: c.label)
def test_run_row_raises_the_one_error_for_nan_logits(condition):
    model = load_toy_model(fixtures.toy_model_path())
    sample = load_corpus(fixtures.corpus_path())[0]
    prefix = sample.prompt(model.vocabulary)
    context = RowContext(NaNAfterPrompt(model, prefix), load_topic_model(fixtures.topic_model_path()), 25, 0)
    with pytest.raises(NonFiniteLogitsError, match=r"^provider logits hold NaN or \+inf at step 0, row 0$"):
        context.run_row(sample, condition, sample.tid1)

@st.composite
def small_grids(draw):
    """Sweep configs whose conditions often share a decode: 'none' under each strategy, and the same
    method and generation settings under different labels and condition seeds."""
    methods = [ReweightConfig(), ReweightConfig(method="constant_shift", c=3.0),
               ReweightConfig(method="threshold_selection", theta=0.01, beta=1.0)]
    conditions = [
        Condition(f"c{i}", draw(st.sampled_from(methods)),
                  fast_generation(draw(st.sampled_from(["greedy", "sample", "beam"])),
                                  num_beams=draw(st.sampled_from([2, 3])), seed=draw(st.integers(0, 1))))
        for i in range(draw(st.integers(1, 5)))
    ]
    overrides = dict(limit=draw(st.integers(1, 3)), master_seed=draw(st.integers(0, 3)),
                     steered_policy=draw(st.sampled_from(experiment.STEERED_POLICIES)))
    return conditions, overrides


class TestConditionSeed:
    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_a_seed_that_no_decode_reads_does_not_split_the_decode(self, tmp_path, strategy):
        """Two conditions that differ only in a greedy or beam seed share one decode, and both keep seed 0."""
        conditions = [Condition(f"{strategy}-{seed}", ReweightConfig(), fast_generation(strategy, seed=seed))
                      for seed in (0, 5)]
        assert [condition.generation.seed for condition in conditions] == [0, 0]
        result = run_sweep(make_config(tmp_path, conditions, limit=1, steered_policy="tid1"))
        assert (result.rows_total, result.rows_error) == (2, 0)
        assert json.loads(result.manifest_path.read_text())["decodes"] == 1

    def test_a_sampling_seed_is_kept(self):
        assert Condition("sample", ReweightConfig(), fast_generation("sample", seed=5)).generation.seed == 5


class TestSharedDecodes:
    @settings(max_examples=25, deadline=None)
    @given(small_grids())
    def test_sweep_equals_a_row_loop_without_shared_decodes(self, grid):
        conditions, overrides = grid
        inner_row, inner_generate = RowContext.run_row, experiment.generate
        generated = []

        def memo_free(context, sample, condition, tid):
            fresh = RowContext(context.model, context.topic_model, context.top_n, context.master_seed)
            return inner_row(fresh, sample, condition, tid)

        def counting(*args):
            generated.append(args[3])
            return inner_generate(*args)

        with tempfile.TemporaryDirectory() as root:
            config = make_config(Path(root), conditions, **overrides)
            with mock.patch.object(experiment, "generate", counting):
                shared = run_sweep(config)
            with mock.patch.object(RowContext, "run_row", memo_free):
                alone = run_sweep(dataclasses.replace(config, out_dir=Path(root) / "alone"))
            for name in ("report_path", "aggregate_path"):
                assert getattr(shared, name).read_bytes() == getattr(alone, name).read_bytes()
            manifests = [json.loads(r.manifest_path.read_text()) for r in (shared, alone)]
        assert manifests[0]["decodes"] == len(generated) <= shared.rows_total
        for manifest in manifests:
            del manifest["created_at"], manifest["decodes"]
        assert manifests[0] == manifests[1]

    def test_one_context_across_articles_gives_each_row_its_own_decode(self):
        """A context keeps the latest article's decodes only, so a row never gets another article's decode."""
        model = load_toy_model(fixtures.toy_model_path())
        topic_model = load_topic_model(fixtures.topic_model_path())
        conditions = [c for c in benchmark_grid() if c.generation.strategy != "sample"]
        samples = load_corpus(fixtures.corpus_path(), limit=3)
        context = RowContext(model, topic_model, 25, 1)
        for sample in [*samples, samples[0]]:  # back to the first article: its decodes run again
            for condition in conditions:
                for tid in (sample.tid1, sample.tid2):
                    shared = context.run_row(sample, condition, tid)
                    alone = RowContext(model, topic_model, 25, 1).run_row(sample, condition, tid)
                    assert shared == alone, (sample.article_id, condition.label, tid)
        assert context.decodes == 4 * 2 * (1 + 2 * 2)  # article x strategy x (none once, two methods per topic)

    def test_failing_shared_decode_records_its_error_on_each_row(self, tmp_path, monkeypatch):
        calls = []
        inner = experiment.generate

        def generate(model, prefix, chain, config):
            calls.append(chain.config.method)
            if chain.config.method == "none" and config.strategy == "greedy":
                raise ValueError("provider\n  failed")
            return inner(model, prefix, chain, config)

        monkeypatch.setattr(experiment, "generate", generate)
        result = run_sweep(make_config(tmp_path, three_conditions()))
        with open(result.report_path) as handle:
            failed = [r for r in csv.DictReader(handle) if r["error"]]
        # each of the two 'baseline' rows of an article ran the decode itself and failed alike
        assert [(r["condition"], r["steered_tid"], r["error"]) for r in failed] == \
            [("baseline", "0", "provider failed"), ("baseline", "1", "provider failed")] * 2
        assert len(calls) == 12
        assert json.loads(result.manifest_path.read_text())["decodes"] == 8


class TestRowContext:
    def test_each_context_is_bound_to_its_top_n_and_topic_model(self):
        """Rows through contexts for top_n 25 and 3, over two topic models, each equal a fresh context's row.

        The rows run in turn through four long-lived contexts, so each one's
        topic sets, chains and decodes meet the rows of the others. The four
        bindings give four different rows for some row key, so a context that
        served a row from another binding's caches would fail.
        """
        model = load_toy_model(fixtures.toy_model_path())
        fixture = load_topic_model(fixtures.topic_model_path())
        swapped = TopicModel(topics={**fixture.topics, 0: fixture.topics[1], 1: fixture.topics[0]})
        bindings = [(fixture, 25), (fixture, 3), (swapped, 25), (swapped, 3)]
        contexts = [RowContext(model, topic_model, top_n, 1) for topic_model, top_n in bindings]
        conditions = [Condition("shift5", ReweightConfig(method="constant_shift", c=5.0), GenerationConfig()),
                      Condition("threshold", ReweightConfig(method="threshold_selection", theta=0.005, beta=1.0),
                                GenerationConfig(strategy="beam"))]
        distinct = set()
        for sample in load_corpus(fixtures.corpus_path(), limit=2):
            for condition in conditions:
                for tid in (sample.tid1, sample.tid2):
                    rows = []
                    for context, (topic_model, top_n) in zip(contexts, bindings):
                        result, row = context.run_row(sample, condition, tid)
                        assert (result, row) == RowContext(model, topic_model, top_n, 1).run_row(sample, condition, tid)
                        rows.append(tuple(row.items()))
                    distinct.add(len(set(rows)))
        assert 4 in distinct

    def test_a_steered_topic_that_is_not_the_articles_fails_before_any_decode(self):
        """A topic the topic model knows but the article does not name fails the row before expansion or decode."""
        model = load_toy_model(fixtures.toy_model_path())
        fixture = load_topic_model(fixtures.topic_model_path())
        context = RowContext(model, TopicModel(topics={**fixture.topics, 2: fixture.topics[0]}), 25, 1)
        sample = load_corpus(fixtures.corpus_path(), limit=1)[0]
        assert (sample.tid1, sample.tid2) == (0, 1)
        greedy = Condition("shift5", ReweightConfig(method="constant_shift", c=5.0), GenerationConfig())
        message = f"steered topic 2 is not a topic of article {sample.article_id!r} (0, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            context.run_row(sample, greedy, 2)
        assert context.decodes == 0 and not context._token_sets
        context.run_row(sample, greedy, 1)
        assert context.decodes == 1


@st.composite
def shared_text_corpora(draw):
    """Articles that share one article text and differ in their topic pair, drawn from three topics, and
    in their references, with conditions that mostly repeat a summary for other topics and references."""
    fixture = load_corpus(fixtures.corpus_path(), limit=2)
    references = [text for sample in fixture for text in (sample.ref1, sample.ref2)]
    article = draw(st.sampled_from([sample.article for sample in fixture]))
    samples = [CorpusSample(f"a{i}", article, *draw(st.permutations([0, 1, 2]))[:2],
                            draw(st.sampled_from(references)), draw(st.sampled_from(references)))
               for i in range(draw(st.integers(1, 4)))]
    methods = [ReweightConfig(), ReweightConfig(method="constant_shift", c=3.0)]
    conditions = [Condition(f"c{i}", draw(st.sampled_from(methods)),
                            fast_generation(draw(st.sampled_from(["greedy", "sample", "beam"]))))
                  for i in range(draw(st.integers(1, 3)))]
    return samples, conditions


class TestRowScoreCache:
    @settings(max_examples=30, deadline=None)
    @given(shared_text_corpora())
    def test_each_row_of_a_long_lived_context_equals_its_own_scoring(self, drawn):
        """A context scores each (summary, topic pair) and (summary, reference) once, and every row equals
        ``score_summary`` of that row alone, whatever other articles the context scored that summary for."""
        samples, conditions = drawn
        model = load_toy_model(fixtures.toy_model_path())
        fixture = load_topic_model(fixtures.topic_model_path())
        mixed = tuple(sorted(fixture.topics[0][:12] + fixture.topics[1][12:], key=lambda pair: -pair[1]))
        topic_model = TopicModel(topics={**fixture.topics, 2: mixed})
        context = RowContext(model, topic_model, 25, 1)
        for sample in samples:
            for condition in conditions:
                for tid in (sample.tid1, sample.tid2):
                    result, row = context.run_row(sample, condition, tid)
                    alone = scoring.score_summary(
                        result, article_id=sample.article_id, condition=condition.label, steered_tid=tid,
                        topics=(sample.tid1, sample.tid2), references=(sample.ref1, sample.ref2),
                        model=topic_model, vocab=model.vocabulary, top_n=25)
                    assert row == scoring.report_row(alone), (sample, condition.label, tid)

    def test_the_no_dictionary_word_warning_is_logged_once_per_distinct_summary(self, tmp_path, caplog):
        """Topic words that miss the vocabulary leave steering inert, so an article's rows share one summary."""
        topics_path = tmp_path / "topics.json"
        topics_path.write_text(json.dumps({"topics": [{"id": 0, "words": [["zzqx", 1.0]]},
                                                      {"id": 1, "words": [["qqwz", 1.0]]}]}))
        conditions = [Condition("none", ReweightConfig(), fast_generation()),
                      Condition("shift2", ReweightConfig(method="constant_shift", c=2.0), fast_generation())]
        with caplog.at_level(logging.WARNING, logger="topicsteer.scoring"):
            result = run_sweep(make_config(tmp_path, conditions, topics_path=topics_path))
        assert (result.rows_total, result.rows_error) == (8, 0)
        warnings = [r for r in caplog.records if "no summary word found" in r.getMessage()]
        assert len(warnings) == 2 * 2  # each article's one summary, scored for its two topics


def decimals(digits=12, low=-300, high=300):
    """Decimals of at most ``digits`` significant digits, of either sign, at magnitudes 10**low to 10**high."""
    return st.builds(lambda mantissa, exponent: float(f"{mantissa}e{exponent}"),
                     st.integers(-(10**digits) + 1, 10**digits - 1), st.integers(low - digits, high - digits))


aggregate_values = st.one_of(
    decimals(), decimals(high=0),  # the metrics are scores in [0, 1]
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
)


class TestAggregates:
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev is correctly rounded from Python 3.11 on")
    @settings(max_examples=500, deadline=None)
    @given(st.lists(aggregate_values, min_size=1, max_size=30).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)))
    def test_integer_mean_and_stdev_match_statistics(self, values):
        """The exact integer sums give ``statistics``' floats bit for bit; drawing from a pool repeats values."""
        import statistics

        mean, std = experiment._mean_and_stdev(values)
        assert mean.hex() == statistics.mean(values).hex()
        assert std.hex() == (statistics.stdev(values) if len(values) > 1 else 0.0).hex()

    def test_a_fixture_list_whose_python_3_10_stdev_is_one_bit_high(self):
        """greedy-threshold, steered topic 0, lemma_t2 over the fixture grid at master seed 1: one nonzero score.

        Its exact stdev is x / 5, which one float division rounds correctly.
        Python 3.10's ``statistics.stdev`` gives 0x1.c163c450bf1f7p-7, one
        bit above; 16 more of the grid's 126 aggregate lists differ like it.
        """
        x = 0.0685714285714
        values = [0.0] * 17 + [x] + [0.0] * 7
        mean, std = experiment._mean_and_stdev(values)
        assert (mean.hex(), std.hex()) == ((x / 25).hex(), (x / 5).hex()) == ("0x1.67830373cc192p-9",
                                                                               "0x1.c163c450bf1f6p-7")

    def test_rows_order_steered_topics_as_numbers(self, tmp_path):
        """Topics 2 and 10: each condition lists topic 2 first, where comparing the ids as text put 10 first."""
        topics = json.loads(Path(fixtures.topic_model_path()).read_text())
        for topic, tid in zip(topics["topics"], (10, 2)):
            topic["id"] = tid
        topics_path = tmp_path / "topics.json"
        topics_path.write_text(json.dumps(topics))
        corpus = [{**json.loads(line), "tid1": 10, "tid2": 2}
                  for line in Path(fixtures.corpus_path()).read_text().splitlines()[:2]]
        config = make_config(tmp_path, three_conditions()[:2], topics_path=topics_path,
                             corpus_path=write_jsonl(tmp_path / "corpus.jsonl", corpus))
        result = run_sweep(config)
        assert result.rows_error == 0
        with open(result.aggregate_path) as handle:
            keys = [(row["condition"], row["steered_tid"], row["n"]) for row in csv.DictReader(handle)]
        assert keys == [("baseline", "2", "2"), ("baseline", "10", "2"), ("shift2", "2", "2"), ("shift2", "10", "2")]


TIE_SCORES = (-1.0, 0.0, 0.5, 1.0, 2.0)
TIE_METHODS = {"none": ReweightConfig(), "shift": ReweightConfig(method="constant_shift", c=1.0),
               "scale": ReweightConfig(method="factor_scaling", alpha=1.5),
               "threshold": ReweightConfig(method="threshold_selection", theta=0.02, beta=0.5)}


def two_topics(words):
    """Topic 0 holds every other word, topic 1 the rest and the first word, by falling weight."""
    return TopicModel(topics={tid: tuple((word, 1.0 / rank) for rank, word in enumerate(topic, 1))
                              for tid, topic in enumerate((words[::2], words[1::2] + words[:1]))})


def tie_conditions(base):
    """Greedy search, sampling and beam search with ``base``'s settings, each under every method of ``TIE_METHODS``."""
    return [Condition(f"{strategy}-{name}", method, dataclasses.replace(base, strategy=strategy))
            for strategy in ("greedy", "sample", "beam") for name, method in TIE_METHODS.items()]


def run_row_as_reference(context, sample, condition, tid):
    """Run one row through ``context``, check its tokens and log prob against the reference decoder bit for bit."""
    result, _ = context.run_row(sample, condition, tid)
    vocab = context.model.vocabulary
    generation = condition.generation_for(context.master_seed, sample.article_id, tid)
    chain = build_chain(condition.reweight, topic_token_set(tid, context.topic_model, vocab, context.top_n))
    expected = REFERENCE[generation.strategy](context.model, sample.prompt(vocab), chain, generation)
    assert (result.tokens, result.log_prob.hex()) == (expected.tokens, expected.log_prob.hex())
    return result


def test_rows_whose_eos_fires_and_whose_threshold_ties_match_the_reference_decoders():
    """Rows through one ``RowContext`` equal the reference decoders where EOS fires and topic tokens tie.

    The fixture never ends a decode early and no threshold rewrite of it ties
    two topic tokens. Here seeded order-1 tables of 6-10 tokens draw their
    scores from {-1, 0, 0.5, 1, 2}, so scores tie, and their EOS column from
    U(-0.5, 2), so decodes stop once EOS may fire. Greedy search, sampling and
    beam search each run with no reweighting, a shift of 1, a factor of 1.5
    and a threshold rewrite (theta 0.02, beta 0.5) that raises every
    qualifying topic token to one value, for both topics of three articles.
    Each row's tokens and log prob are the reference's bit for bit.
    """
    base = GenerationConfig(top_k=4, top_p=0.9, num_beams=3, min_new_tokens=2, max_new_tokens=8)
    conditions = tie_conditions(base)
    rows = early = tied = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vocab = make_vocab(int(rng.integers(4, 9)))
        table = rng.choice(TIE_SCORES, (vocab.size, vocab.size))
        table[:, vocab.eos_id] = rng.uniform(-0.5, 2.0, vocab.size)
        model = ToyMarkovModel(vocabulary=vocab, table=table)
        words = vocab.tokens[2:]
        topic_model = two_topics(words)
        context = RowContext(model, topic_model, 25, seed)
        for i in range(3):
            article = " ".join(rng.choice(words, 4))
            sample = CorpusSample(f"a{i}", article, i % 2, 1 - i % 2, words[0], words[1])
            for condition in conditions:
                for tid in (0, 1):
                    result = run_row_as_reference(context, sample, condition, tid)
                    rows += 1
                    early += len(result.tokens) < base.max_new_tokens
        for tid in (0, 1):  # table rows whose rewrite raises two or more topic tokens to max + beta
            chain = build_chain(TIE_METHODS["threshold"], topic_token_set(tid, topic_model, vocab, 25))
            raised = np.array([chain.apply(row)[chain.ids] for row in table]) == table.max(axis=1, keepdims=True) + 0.5
            tied += int((raised.sum(axis=1) > 1).sum())
    assert rows == 20 * 3 * 12 * 2 and early >= 100 and tied >= 100  # 184 rows stop early; 348 rewrites tie


@st.composite
def eos_tie_cases(draw):
    """An order-1 table whose scores tie and whose EOS may fire, a length window, successor settings and an article.

    V is 6-10 tokens. Scores come from {-1, 0, 0.5, 1, 2}; each EOS score
    from that set too, where it ties with the words, or from U(-0.5, 2). The
    window may be empty (max_new_tokens 0), or leave EOS unmasked from the
    first step (min_new_tokens 0) or never (min_new_tokens = max_new_tokens).
    """
    vocab = make_vocab(draw(st.integers(4, 8)))
    size = vocab.size
    table = np.array(draw(st.lists(st.sampled_from(TIE_SCORES), min_size=size * size, max_size=size * size)))
    table = table.reshape(size, size)
    table[:, vocab.eos_id] = draw(st.lists(st.one_of(st.sampled_from(TIE_SCORES), st.floats(-0.5, 2.0)),
                                           min_size=size, max_size=size))
    max_new = draw(st.integers(0, 8))
    base = GenerationConfig(top_k=draw(st.integers(1, size)), top_p=draw(st.sampled_from([1.0, 0.9, 0.5])),
                            num_beams=draw(st.integers(1, 4)), min_new_tokens=draw(st.integers(0, max_new)),
                            max_new_tokens=max_new)
    article = draw(st.lists(st.sampled_from(vocab.tokens[2:]), min_size=1, max_size=4))
    return ToyMarkovModel(vocabulary=vocab, table=table), base, " ".join(article), draw(st.integers(0, 2**16))


@settings(max_examples=100, deadline=None)
@given(eos_tie_cases())
def test_drawn_rows_whose_eos_fires_and_whose_threshold_ties_match_the_reference_decoders(case):
    """Drawn tables and length windows: every strategy under every method equals the reference decoders.

    The drawn form of the seeded test above, with its topics and methods:
    each of the 12 conditions decodes both topics of one article through one
    ``RowContext``, and each row's tokens and log prob are the reference's
    bit for bit.
    """
    model, base, article, seed = case
    words = model.vocabulary.tokens[2:]
    context = RowContext(model, two_topics(words), 25, seed)
    sample = CorpusSample("a0", article, 0, 1, words[0], words[1])
    for condition in tie_conditions(base):
        for tid in (0, 1):
            run_row_as_reference(context, sample, condition, tid)


class CountingRows:
    """A toy model that counts the rows its ``logits_many`` is asked for."""

    def __init__(self, model):
        self.model, self.vocabulary = model, model.vocabulary
        self.start, self.advance = model.start, model.advance
        self.rows = 0

    def logits_many(self, states):
        self.rows += len(states)
        return self.model.logits_many(states)


class EveryStep:
    """A toy model whose states never repeat across steps, which records the (step, last id) pairs of each step it asks for."""

    def __init__(self, model):
        self.model, self.vocabulary = model, model.vocabulary
        self.asked = []

    def start(self, prefix):
        return 0, self.model.start(prefix)

    def advance(self, state, token):
        return state[0] + 1, token

    def logits_many(self, states):
        self.asked += states
        return self.model.logits_many([token for _, token in states])


class TestSharedChains:
    def test_sweep_asks_each_chain_settings_state_and_phase_once(self, tmp_path, monkeypatch):
        """Over the fixture grid, the model is asked for each distinct (chain, kept settings, state, EOS phase) once.

        Sampling and beam search share a state's survivors, so their kept
        settings are top_k and top_p, and a record that both EOS phases share
        has phase None (``test_decoding.phase_of``); greedy search keeps its
        own successors, under its successor settings, for both phases unless
        EOS leads the state's row. Each decode is replayed on a fresh chain
        through ``EveryStep`` to list the pairs it meets. ``run_sweep`` calls ``generate`` once per decode it
        computes, with exactly four positional arguments, as the benchmark's
        per-row timing wraps it; a second sweep asks again, so nothing is kept
        outside the sweep. The sweep builds 532 successor lists from survivors
        records: a record both EOS phases share has its successors built once,
        for both phases, by each strategy that meets it.
        """
        providers, calls, builds = [], [], Counter()
        inner_load, inner_generate = experiment.load_toy_model, experiment.generate

        def counted(strategy, build):
            def counting(record, generation):
                builds[strategy] += 1
                return build(record, generation)
            return counting

        for strategy, build in decoding._BUILDS.items():
            if build is not None:  # greedy's successors come from its block, with no build
                monkeypatch.setitem(decoding._BUILDS, strategy, counted(strategy, build))

        def load(path):
            providers.append(CountingRows(inner_load(path)))
            return providers[-1]

        def four_arguments(model, prefix, chain, config, /):
            calls.append((prefix, chain, config))
            return inner_generate(model, prefix, chain, config)

        monkeypatch.setattr(experiment, "load_toy_model", load)
        monkeypatch.setattr(experiment, "generate", four_arguments)
        config = make_config(tmp_path, benchmark_grid(), limit=None, steered_policy="both", master_seed=1)
        result = run_sweep(config)
        built = sum(builds.values())
        assert (result.rows_total, result.rows_error) == (450, 0)
        assert len(calls) == json.loads(result.manifest_path.read_text())["decodes"] == 400
        assert built == 532 and set(builds) == {"sample", "beam"}
        assert len({id(chain) for _, chain, _ in calls}) == 5  # none, and shift and threshold per topic
        pairs, per_decode = set(), 0
        for prefix, chain, generation in calls:
            stepper = EveryStep(providers[0].model)
            inner_generate(stepper, prefix, ProcessorChain(chain.config, chain.ids), generation)
            kept = ("greedy", generation.num_beams) if generation.strategy == "greedy" else ("survivors",)
            settings = (id(chain), generation.top_k, generation.top_p, *kept)
            met = {(settings, token, phase_of(providers[0].model, chain, generation, token, step))
                   for step, token in stepper.asked}
            pairs |= met
            per_decode += len(met)  # what a decode asks through a chain of its own
        assert providers[0].rows == len(pairs) == 475 < per_decode / 5
        again = run_sweep(dataclasses.replace(config, out_dir=tmp_path / "again"))
        assert providers[1].rows == providers[0].rows
        assert again.report_path.read_bytes() == result.report_path.read_bytes()


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_sensitive_to_every_part(self):
        base = derive_seed(1, "a", "b", 0)
        assert base != derive_seed(2, "a", "b", 0)
        assert base != derive_seed(1, "x", "b", 0)
        assert base != derive_seed(1, "a", "y", 0)
        assert base != derive_seed(1, "a", "b", 1)

    def test_fits_in_uint64(self):
        assert 0 <= derive_seed(999, "z") < 2 ** 64

    def test_no_article_id_or_label_holds_the_separator(self):
        # the joined text is all a seed sees, so ("a\x1fb", "c") and ("a", "b\x1fc") would share one
        assert derive_seed(1, "a\x1fb", "c", 0) == derive_seed(1, "a", "b\x1fc", 0)
        with pytest.raises(ValueError, match=re.escape("article_id 'a\\x1fb' holds")):
            CorpusSample("a\x1fb", "the court", 0, 1, "court", "orbit")
        with pytest.raises(ValueError, match=re.escape("condition label 'b\\x1fc' holds")):
            Condition("b\x1fc", ReweightConfig(), GenerationConfig(strategy="sample"))


class TestMerge:
    def run_small_sweep(self, tmp_path) -> Path:
        result = run_sweep(make_config(tmp_path, three_conditions()[:2]))
        return result.report_path

    def write_external(self, path: Path, rows):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["article_id", "condition", "steered_tid", "metric", "value"])
            writer.writerows(rows)
        return path

    def test_full_join(self, tmp_path):
        report = self.run_small_sweep(tmp_path)
        external = self.write_external(
            tmp_path / "ext.csv",
            [[aid, cond, tid, "mauve", "0.5"]
             for aid in ("a000", "a001") for cond in ("baseline", "shift2") for tid in ("0", "1")],
        )
        result = merge_external_scores(report, external, tmp_path / "m.csv", tmp_path / "r.csv")
        assert result.rejected_rows == 0
        assert result.metrics == ("mauve",)
        with open(result.out_path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 8
        assert all(row["mauve"] == "0.5" for row in rows)

    def test_unknown_key_goes_to_rejects(self, tmp_path):
        report = self.run_small_sweep(tmp_path)
        external = self.write_external(
            tmp_path / "ext.csv",
            [["a000", "baseline", "0", "mauve", "0.4"], ["zzz", "baseline", "0", "mauve", "0.9"]],
        )
        result = merge_external_scores(report, external, tmp_path / "m.csv", tmp_path / "r.csv")
        assert result.rejected_rows == 1
        with open(result.rejects_path) as handle:
            rejects = list(csv.DictReader(handle))
        assert rejects[0]["article_id"] == "zzz"

    def test_empty_external_passes_report_through(self, tmp_path):
        report = self.run_small_sweep(tmp_path)
        external = self.write_external(tmp_path / "ext.csv", [])
        result = merge_external_scores(report, external, tmp_path / "m.csv", tmp_path / "r.csv")
        assert result.metrics == ()
        with open(report) as fa, open(result.out_path) as fb:
            assert fa.read() == fb.read()

    def test_conflicting_values_raise(self, tmp_path):
        report = self.run_small_sweep(tmp_path)
        external = self.write_external(
            tmp_path / "ext.csv",
            [["a000", "baseline", "0", "mauve", "0.4"], ["a000", "baseline", "0", "mauve", "0.5"]],
        )
        with pytest.raises(MergeConflictError, match="conflicting values"):
            merge_external_scores(report, external, tmp_path / "m.csv", tmp_path / "r.csv")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_row(self, tmp_path, value):
        report = self.run_small_sweep(tmp_path)
        external = self.write_external(
            tmp_path / "ext.csv",
            [["a000", "baseline", "0", "mauve", "0.4"], ["a001", "shift2", "1", "mauve", value]],
        )
        with pytest.raises(CorpusFormatError, match=r"ext\.csv:3: .*a001.*not a finite number"):
            merge_external_scores(report, external, tmp_path / "m.csv", tmp_path / "r.csv")

    def test_duplicate_identical_values_tolerated(self, tmp_path):
        report = self.run_small_sweep(tmp_path)
        external = self.write_external(
            tmp_path / "ext.csv",
            [["a000", "baseline", "0", "mauve", "0.4"], ["a000", "baseline", "0", "mauve", "0.4"]],
        )
        result = merge_external_scores(report, external, tmp_path / "m.csv", tmp_path / "r.csv")
        assert result.matched_values == 1

    def test_value_joins_only_its_steered_topic(self, tmp_path):
        # the sweep steers both topics; a value scored for the tid-0 summary
        # must not land on the tid-1 row of the same article and condition
        report = self.run_small_sweep(tmp_path)
        external = self.write_external(tmp_path / "ext.csv", [["a000", "baseline", "0", "mauve", "0.4"]])
        result = merge_external_scores(report, external, tmp_path / "m.csv", tmp_path / "r.csv")
        with open(result.out_path) as handle:
            rows = {(r["article_id"], r["condition"], r["steered_tid"]): r for r in csv.DictReader(handle)}
        assert rows[("a000", "baseline", "0")]["mauve"] == "0.4"
        assert rows[("a000", "baseline", "1")]["mauve"] == ""
        assert sum(1 for r in rows.values() if r["mauve"]) == 1

    @pytest.mark.parametrize("metric", ["condition", "rouge_l_f1", "error"])
    def test_metric_named_like_a_sweep_column_is_rejected(self, tmp_path, metric):
        # "condition" overwrote the row's key and "rouge_l_f1" the computed score, and the merge succeeded
        report = self.run_small_sweep(tmp_path)
        external = self.write_external(
            tmp_path / "ext.csv", [["a000", "baseline", "0", "mauve", "0.4"], ["a000", "baseline", "0", metric, "7"]],
        )
        with pytest.raises(CorpusFormatError, match=rf"ext\.csv:3: metric '{metric}' is a column a sweep writes$"):
            merge_external_scores(report, external, tmp_path / "m.csv", tmp_path / "r.csv")
        assert not (tmp_path / "m.csv").exists() and not (tmp_path / "r.csv").exists()

    def test_empty_metric_name_names_its_line(self, tmp_path):
        report = self.run_small_sweep(tmp_path)
        external = self.write_external(
            tmp_path / "ext.csv", [["a000", "baseline", "0", "mauve", "0.4"], ["a000", "baseline", "1", "", "7"]],
        )
        with pytest.raises(CorpusFormatError) as error:
            merge_external_scores(report, external, tmp_path / "m.csv", tmp_path / "r.csv")
        assert str(error.value) == f"{external}:3: empty metric name for ('a000', 'baseline', '1', '')"
        assert not (tmp_path / "m.csv").exists() and not (tmp_path / "r.csv").exists()

    def test_metric_of_an_earlier_merge_merges_again(self, tmp_path):
        report = self.run_small_sweep(tmp_path)
        one = self.write_external(tmp_path / "one.csv", [["a000", "baseline", "0", "mauve", "0.4"],
                                                         ["a001", "baseline", "0", "mauve", "0.3"]])
        two = self.write_external(tmp_path / "two.csv", [["a000", "baseline", "0", "mauve", "0.6"]])
        first = merge_external_scores(report, one, tmp_path / "m1.csv", tmp_path / "r1.csv")
        second = merge_external_scores(first.out_path, two, tmp_path / "m2.csv", tmp_path / "r2.csv")
        with open(second.out_path) as handle:
            rows = {(r["article_id"], r["condition"], r["steered_tid"]): r for r in csv.DictReader(handle)}
        assert rows[("a000", "baseline", "0")]["mauve"] == "0.6" and rows[("a001", "baseline", "0")]["mauve"] == "0.3"

    def test_missing_steered_tid_column_is_named(self, tmp_path):
        report = self.run_small_sweep(tmp_path)
        external = tmp_path / "ext.csv"
        external.write_text("article_id,condition,metric,value\na000,baseline,mauve,0.4\n")
        with pytest.raises(CorpusFormatError, match="missing columns.*steered_tid"):
            merge_external_scores(report, external, tmp_path / "m.csv", tmp_path / "r.csv")


class TestConfigHash:
    def sweep_in(self, root: Path, edit=lambda corpus: corpus) -> dict:
        root.mkdir()
        for source in (fixtures.topic_model_path(), fixtures.toy_model_path()):
            shutil.copyfile(source, root / source.name)
        (root / "corpus.jsonl").write_bytes(edit(fixtures.corpus_path().read_bytes()))
        config = ExperimentConfig(
            corpus_path=root / "corpus.jsonl", topics_path=root / "topics.json",
            model_path=root / "toy_model.json", out_dir=root / "out",
            conditions=(Condition("baseline", ReweightConfig(), fast_generation()),), limit=1,
        )
        return json.loads(run_sweep(config).manifest_path.read_text())

    def test_hash_follows_input_contents_not_location(self, tmp_path):
        one = self.sweep_in(tmp_path / "one")
        two = self.sweep_in(tmp_path / "two")
        assert one["config_hash"] == two["config_hash"]
        assert one["inputs"] == two["inputs"] == {
            "corpus_path": hashlib.sha256(fixtures.corpus_path().read_bytes()).hexdigest(),
            "topics_path": hashlib.sha256(fixtures.topic_model_path().read_bytes()).hexdigest(),
            "model_path": hashlib.sha256(fixtures.toy_model_path().read_bytes()).hexdigest(),
        }

    def test_one_changed_byte_changes_hash(self, tmp_path):
        one = self.sweep_in(tmp_path / "one")
        two = self.sweep_in(tmp_path / "two", lambda corpus: corpus.replace(b"jury", b"fury", 1))
        assert one["config_hash"] != two["config_hash"]
        assert one["inputs"]["corpus_path"] != two["inputs"]["corpus_path"]

    def test_identity_covers_every_field_but_out_dir(self, tmp_path):
        # A field added to the config enters the hashed identity without a second edit.
        Extended = dataclasses.make_dataclass("Extended", [("extra", int, dataclasses.field(default=7))],
                                              bases=(ExperimentConfig,), frozen=True)
        base = make_config(tmp_path, three_conditions())
        record = Extended(**{f.name: getattr(base, f.name) for f in dataclasses.fields(base)}).to_dict()
        assert record["extra"] == 7
        assert "out_dir" not in record
        assert {k: v for k, v in record.items() if k != "extra"} == base.to_dict()


class TestConfigValidation:
    def test_duplicate_labels(self, tmp_path):
        conditions = [
            Condition("x", ReweightConfig(), fast_generation()),
            Condition("x", ReweightConfig(), fast_generation()),
        ]
        with pytest.raises(ValueError, match="unique"):
            make_config(tmp_path, conditions)

    def test_bad_policy(self, tmp_path):
        with pytest.raises(ValueError, match="policy"):
            make_config(tmp_path, three_conditions(), steered_policy="everything")

    def test_bad_limit(self, tmp_path):
        with pytest.raises(ValueError, match="limit"):
            make_config(tmp_path, three_conditions(), limit=0)

    def test_no_conditions(self, tmp_path):
        with pytest.raises(ValueError, match="^at least one condition is required$"):
            make_config(tmp_path, [])

    def test_top_n_below_one(self, tmp_path):
        with pytest.raises(ValueError, match="^top_n must be >= 1$"):
            make_config(tmp_path, three_conditions(), top_n=0)

    def test_empty_label(self):
        with pytest.raises(ValueError, match="^condition label must be non-empty$"):
            Condition("", ReweightConfig(), fast_generation())

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="differ"):
            CorpusSample("a", "text", 1, 1, "r1", "r2")
