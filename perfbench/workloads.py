"""The three benchmark workloads: set-up, one timed round, and their oracles.

A round is a fixed list of operations, the same in every round of a run; an
operation is one row, one ``generate`` call followed by one ``score_summary``
call. Every call into the package goes through its module attribute
(``decoding.generate``, ``scoring.score_summary``...) so that the tracer's
wrappers see it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import topicsteer.decoding as decoding
import topicsteer.experiment as experiment
import topicsteer.models as models
import topicsteer.reweight as reweight
import topicsteer.scoring as scoring
import topicsteer.stemmer as stemmer
import topicsteer.topics as topics
from topicsteer import fixtures

import oracles
import synth
from hostspeed import HostProbe

CONDITIONS = {
    "none": reweight.ReweightConfig(),
    "shift5": reweight.ReweightConfig(method="constant_shift", c=5.0),
    "threshold": reweight.ReweightConfig(method="threshold_selection", theta=0.005, beta=1.0),
}
STRATEGIES = ("greedy", "sample", "beam")
REPORT_COLUMNS = list(scoring.REPORT_COLUMNS)


@dataclass
class Op:
    """One row that generated: its strategy, tokens returned, two timings, and
    the mean duration of the host probes run just before and just after it."""

    strategy: str
    tokens: int
    gen_s: float
    score_s: float = 0.0
    probe_s: float = 0.0


@dataclass
class RoundResult:
    """What one round did; ``outputs`` must be identical in every round."""

    rows: int
    failed: int
    wall_s: float
    ops: list[Op] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    outputs: object = None
    failures: list[str] = field(default_factory=list)


@dataclass
class State:
    model: object
    topic_model: topics.TopicModel
    corpus: list
    token_sets: dict


def _token_sets(topic_model, vocab, top_n: int) -> dict:
    return {tid: topics.topic_token_set(tid, topic_model, vocab, top_n) for tid in (0, 1)}


def _steer_for(label: str, token_set):
    config = CONDITIONS[label]
    ids = np.array(token_set.sorted_ids(), dtype=np.intp)
    return lambda x: oracles.reference_steer(x, config.method, ids, c=config.c,
                                             theta=config.theta, beta=config.beta)


def make_up(state: State, conditions: list[str]) -> str:
    """Input make-up of one round: V, topic-set sizes, prompt lengths, and the
    rows whose output cannot depend on the steered topic (greedy and beam
    search under 'none')."""
    vocab = state.model.vocabulary
    lengths = sorted(len(vocab.encode_words(s.article)) + 1 for s in state.corpus)
    independent = sum(c in ("greedy-none", "beam-none") for c in conditions)
    sets = ", ".join(f"{tid}: {len(ts)}" for tid, ts in sorted(state.token_sets.items()))
    return (f"inputs: V={vocab.size}, topic set sizes {{{sets}}}, prefix lengths {lengths[0]}..{lengths[-1]} "
            f"over {len(lengths)} prompts, topic-independent rows {independent}/{len(conditions)}")


class RowsWorkload:
    """Rows driven by the benchmark: prompts x conditions x strategies."""

    name = ""
    labels: tuple[str, ...] = ()
    generation = decoding.GenerationConfig()
    top_n = 25
    probe_kind = "interpreter"

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def load_model(self):
        raise NotImplementedError

    def reference_logits(self, state: State):
        raise NotImplementedError

    def setup(self) -> State:
        model = self.load_model()
        topic_model = topics.load_topic_model(self.topics_path)
        corpus = experiment.load_corpus(self.work / "corpus.jsonl")
        return State(model, topic_model, corpus, _token_sets(topic_model, model.vocabulary, self.top_n))

    def run_round(self, state: State, probe: HostProbe) -> RoundResult:
        clock = time.perf_counter
        vocab = state.model.vocabulary
        first_probe = len(probe.times)
        start = clock()
        result = RoundResult(rows=0, failed=0, wall_s=0.0, outputs=[])
        csv_rows = []
        before = probe()
        for index, sample in enumerate(state.corpus):
            tid = (sample.tid1, sample.tid2)[index % 2]
            prefix = [vocab.bos_id, *vocab.encode_words(sample.article)]
            for label in self.labels:
                chain = reweight.build_chain(CONDITIONS[label], state.token_sets[tid])
                for strategy in STRATEGIES:
                    condition = f"{strategy}-{label}"
                    config = replace(self.generation, strategy=strategy,
                                     seed=experiment.derive_seed(self.seed, sample.article_id, condition, tid))
                    result.rows += 1
                    try:
                        t0 = clock()
                        generated = decoding.generate(state.model, prefix, chain, config)
                        t1 = clock()
                        report = scoring.score_summary(
                            generated, article_id=sample.article_id, condition=condition, steered_tid=tid,
                            topics=(sample.tid1, sample.tid2), references=(sample.ref1, sample.ref2),
                            model=state.topic_model, vocab=vocab, top_n=self.top_n,
                            token_sets=state.token_sets)
                        t2 = clock()
                    except Exception as exc:  # counted as a failed operation; the round goes on
                        result.failed += 1
                        result.failures.append(f"{sample.article_id} {condition}: {exc!r}")
                        before = probe()
                        continue
                    after = probe()
                    result.ops.append(Op(strategy, len(generated.tokens), t1 - t0, t2 - t1, (before + after) / 2))
                    before = after
                    row = scoring.report_row(report)
                    csv_rows.append(row)
                    result.outputs.append((sample.article_id, label, strategy, tid,
                                           generated.tokens, generated.log_prob, tuple(row.values())))
        scoring.write_report_csv(csv_rows, self.work / "report.csv", REPORT_COLUMNS)
        result.wall_s = clock() - start
        result.probes = probe.times[first_probe:]
        return result

    def warm_up(self, state: State, probe: HostProbe) -> RoundResult:
        return self.run_round(state, probe)

    def conditions(self, outputs) -> list[str]:
        return [f"{strategy}-{label}" for _a, label, strategy, *_ in outputs]

    def check(self, state: State, outputs) -> list[str]:
        vocab = state.model.vocabulary
        logits = self.reference_logits(state)
        samples = {s.article_id: s for s in state.corpus}
        specials = (vocab.bos_id, vocab.eos_id)
        errors: list[str] = []
        greedy: dict[tuple[str, str], tuple] = {}
        for article_id, label, strategy, tid, tokens, log_prob, row in outputs:
            sample = samples[article_id]
            token_set = state.token_sets[tid]
            steer = _steer_for(label, token_set)
            chain = reweight.build_chain(CONDITIONS[label], token_set)
            prefix = [vocab.bos_id, *vocab.encode_words(sample.article)]
            config = replace(self.generation, strategy=strategy)
            where = f"{self.name} {article_id} {strategy}-{label}"
            errors += [f"{where}: {e}" for e in oracles.check_result(
                tokens, log_prob, strategy, logits, steer, chain.apply,
                np.array(token_set.sorted_ids(), dtype=np.intp), prefix, vocab.eos_id, config)]
            if strategy == "greedy":
                greedy[(article_id, label)] = tokens
                expected = oracles.reference_greedy(logits, prefix, steer, vocab.eos_id,
                                                    config.min_new_tokens, config.max_new_tokens)
                if expected != tokens:
                    errors.append(f"{where}: greedy tokens differ from the reference decoder")
            values = dict(zip(REPORT_COLUMNS, row))
            text = "".join(vocab.tokens[t] for t in tokens if t not in specials).lstrip(" ")
            reference = sample.ref1 if tid == sample.tid1 else sample.ref2
            rouge = oracles.reference_rouge_l(text, reference, stemmer.stem)
            if format(rouge, ".12g") != values["rouge_l_f1"]:
                errors.append(f"{where}: rouge_l_f1 {values['rouge_l_f1']} but the reference LCS gives {rouge!r}")
            for column, topic in (("token_t1", sample.tid1), ("token_t2", sample.tid2)):
                share = oracles.token_fraction(tokens, state.token_sets[topic].token_ids, specials)
                if format(share, ".12g") != values[column]:
                    errors.append(f"{where}: {column} {values[column]} but the reference gives {share!r}")
        for (article_id, label), tokens in greedy.items():
            if label != "none" and (article_id, "none") in greedy and greedy[(article_id, "none")] == tokens:
                errors.append(f"{self.name} {article_id}: greedy {label} changed no argmax")
        return errors


class LargeVocab(RowsWorkload):
    name = "large-vocab"
    probe_kind = "numpy"  # argsort, softmax and copies over V=50,000 dominate
    labels = ("none", "shift5", "threshold")
    generation = decoding.GenerationConfig(min_new_tokens=10, max_new_tokens=12)
    top_n = synth.LARGE_TOP_N

    def prepare(self, seed: int, work: Path) -> None:
        super().prepare(seed, work)
        self.raw = synth.make_large_vocab(seed, work)
        self.topics_path = work / "topics.json"

    def load_model(self):
        vocab = models.Vocabulary.from_tokens(self.raw["tokens"], bos="<s>", eos="</s>")
        return synth.HashedStateProvider(vocab, self.raw["background"],
                                         self.raw["override_ids"], self.raw["override_values"])

    def reference_logits(self, state: State):
        return state.model.row


class LongPrompt(RowsWorkload):
    name = "long-prompt"
    labels = ("shift5", "threshold")
    lengths = (500, 1500, 3000)

    def prepare(self, seed: int, work: Path) -> None:
        super().prepare(seed, work)
        self.topics_path = fixtures.topic_model_path()
        shipped = json.loads(self.topics_path.read_text(encoding="utf-8"))["topics"]
        words = {t["id"]: tuple(w for w, _ in t["words"]) for t in shipped}
        synth.make_long_prompts(seed, work, self.lengths, words[0], words[1])

    def load_model(self):
        return models.load_toy_model(fixtures.toy_model_path())

    def reference_logits(self, state: State):
        table = state.model.table
        return lambda last: table[last].copy()


def _grid() -> tuple[experiment.Condition, ...]:
    return tuple(
        experiment.Condition(f"{strategy}-{label}", CONDITIONS[label], decoding.GenerationConfig(strategy=strategy))
        for strategy in STRATEGIES for label in CONDITIONS
    )


class FixtureSweep:
    """``run_sweep`` over the shipped fixture: 25 articles x 9 conditions x 2 topics."""

    name = "fixture-sweep"
    probe_kind = "interpreter"
    generation = decoding.GenerationConfig()

    def prepare(self, seed: int, work: Path) -> None:
        self.config = experiment.ExperimentConfig(
            corpus_path=fixtures.corpus_path(), topics_path=fixtures.topic_model_path(),
            model_path=fixtures.toy_model_path(), out_dir=work / "sweep", conditions=_grid(),
            steered_policy="both", master_seed=seed)

    def setup(self) -> State:
        model = models.load_toy_model(self.config.model_path)
        topic_model = topics.load_topic_model(self.config.topics_path)
        corpus = experiment.load_corpus(self.config.corpus_path)
        return State(model, topic_model, corpus, _token_sets(topic_model, model.vocabulary, self.config.top_n))

    def warm_up(self, state: State, probe: HostProbe) -> RoundResult:
        """Two articles of the sweep: enough to fill lazy caches, not a full round."""
        full = self.config
        self.config = replace(full, limit=2)
        try:
            return self.run_round(state, probe)
        finally:
            self.config = full

    def run_round(self, state: State, probe: HostProbe) -> RoundResult:
        result = RoundResult(rows=0, failed=0, wall_s=0.0)
        clock = time.perf_counter
        inner_generate, inner_score = experiment.generate, experiment.score_summary
        first_probe = len(probe.times)

        def close_last_op() -> float:
            after = probe()
            if result.ops:
                result.ops[-1].probe_s = (result.ops[-1].probe_s + after) / 2
            return after

        # run_sweep calls generate then score_summary for each row, so a
        # score timing belongs to the row of the latest generate call. The
        # probe before a row's generate is also the probe after the last row.
        def timed_generate(model, prefix, chain, config):
            before = close_last_op()
            t0 = clock()
            out = inner_generate(model, prefix, chain, config)
            result.ops.append(Op(config.strategy, len(out.tokens), clock() - t0, probe_s=before))
            return out

        def timed_score(*args, **kwargs):
            t0 = clock()
            out = inner_score(*args, **kwargs)
            result.ops[-1].score_s += clock() - t0
            return out

        experiment.generate, experiment.score_summary = timed_generate, timed_score
        try:
            start = clock()
            sweep = experiment.run_sweep(self.config)
            close_last_op()
            result.wall_s = clock() - start
        finally:
            experiment.generate, experiment.score_summary = inner_generate, inner_score
        result.probes = probe.times[first_probe:]
        result.rows, result.failed = sweep.rows_total, sweep.rows_error
        result.outputs = sweep.report_path.read_bytes()
        result.failures = [f"{r['article_id']} {r['condition']} {r['steered_tid']}: {r['error']}"
                         for r in csv.DictReader(result.outputs.decode("utf-8").splitlines()) if r["error"]]
        return result

    def conditions(self, outputs: bytes) -> list[str]:
        return [r["condition"] for r in csv.DictReader(outputs.decode("utf-8").splitlines())]

    def check(self, state: State, outputs: bytes) -> list[str]:
        rows = list(csv.DictReader(outputs.decode("utf-8").splitlines()))
        errors = []
        expected_rows = len(state.corpus) * len(self.config.conditions) * 2
        if len(rows) != expected_rows:
            errors.append(f"{self.name}: {len(rows)} rows, expected {expected_rows}")
        vocab = state.model.vocabulary
        specials = (vocab.bos_id, vocab.eos_id)
        table = state.model.table
        by_key = {(r["article_id"], r["condition"], int(r["steered_tid"])): r for r in rows}
        focus = {"none": [], "shift5": []}
        for sample in state.corpus:
            prefix = [vocab.bos_id, *vocab.encode_words(sample.article)]
            for label in CONDITIONS:
                for tid in (sample.tid1, sample.tid2):
                    row = by_key.get((sample.article_id, f"greedy-{label}", tid))
                    if row is None:
                        errors.append(f"{self.name}: no row for {sample.article_id} greedy-{label} {tid}")
                        continue
                    if row["error"]:  # a failed operation: counted in `failed`, not checked
                        continue
                    tokens = oracles.reference_greedy(
                        lambda last: table[last].copy(), prefix, _steer_for(label, state.token_sets[tid]),
                        vocab.eos_id, self.generation.min_new_tokens, self.generation.max_new_tokens)
                    shares = {t: oracles.token_fraction(tokens, state.token_sets[t].token_ids, specials)
                              for t in (sample.tid1, sample.tid2)}
                    for column, t in (("token_t1", sample.tid1), ("token_t2", sample.tid2)):
                        if format(shares[t], ".12g") != row[column]:
                            errors.append(f"{self.name}: {sample.article_id} greedy-{label} tid {tid}: "
                                          f"{column} {row[column]} but the reference decoder gives {shares[t]!r}")
                    text = "".join(vocab.tokens[t] for t in tokens if t not in specials).lstrip(" ")
                    reference = sample.ref1 if tid == sample.tid1 else sample.ref2
                    rouge = oracles.reference_rouge_l(text, reference, stemmer.stem)
                    if format(rouge, ".12g") != row["rouge_l_f1"]:
                        errors.append(f"{self.name}: {sample.article_id} greedy-{label} tid {tid}: "
                                      f"rouge_l_f1 {row['rouge_l_f1']} but the reference LCS gives {rouge!r}")
                    if label in focus:
                        focus[label].append(shares[tid])
        if focus["none"] and focus["shift5"] and not np.mean(focus["shift5"]) > np.mean(focus["none"]):
            errors.append(f"{self.name}: steered token score under greedy shift 5 "
                          f"({np.mean(focus['shift5'])}) is not above greedy none ({np.mean(focus['none'])})")
        return errors

    @staticmethod
    def digest(outputs: bytes) -> str:
        return hashlib.sha256(outputs).hexdigest()


WORKLOADS = {w.name: w for w in (FixtureSweep, LargeVocab, LongPrompt)}
