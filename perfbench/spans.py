"""Span tracing from outside the package, for the per-layer run.

The tracer replaces public functions and methods of ``topicsteer`` (in every
module namespace that calls them) with wrappers that record one span per
call: name, start, end, parent and one integer value (ids checked, tokens
returned, candidates scored). Spans live in flat arrays in memory, are saved
when the run ends, and self times are derived from them: a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import topicsteer.decoding as decoding
import topicsteer.experiment as experiment
import topicsteer.models as models
import topicsteer.reweight as reweight
import topicsteer.scoring as scoring
import topicsteer.topics as topics

from synth import HashedStateProvider

# (owner, attribute, span name). A function imported by name into another
# module is patched there too, since that binding is the one its caller uses.
# A softmax span is named after the module that calls it.
PATCHES = (
    (models.Vocabulary, "validate_ids", "models.validate_ids"),
    (models.Vocabulary, "decode", "models.decode"),
    (models.Vocabulary, "encode_words", "models.encode_words"),
    (models.ToyMarkovModel, "next_logits", "models.next_logits"),
    (HashedStateProvider, "next_logits", "models.next_logits"),
    (reweight.ProcessorChain, "apply", "reweight.chain_apply"),
    (reweight, "softmax", "reweight.softmax"),
    (decoding, "generate", "decoding.generate"),
    (experiment, "generate", "decoding.generate"),
    (decoding, "generate_greedy", "decoding.generate_greedy"),
    (decoding, "generate_sample", "decoding.generate_sample"),
    (decoding, "generate_beam", "decoding.generate_beam"),
    (decoding, "truncate_top_k_top_p", "decoding.truncate"),
    (decoding, "softmax", "decoding.softmax"),
    (decoding, "log_softmax", "decoding.softmax"),
    (topics, "topic_token_set", "topics.topic_token_set"),
    (experiment, "topic_token_set", "topics.topic_token_set"),
    (scoring, "topic_token_set", "topics.topic_token_set"),
    (topics, "stem", "stemmer.stem"),
    (scoring, "stem", "stemmer.stem"),
    (scoring, "score_summary", "scoring.score_summary"),
    (experiment, "score_summary", "scoring.score_summary"),
    (scoring, "rouge_l_f1", "scoring.rouge_l_f1"),
    (scoring, "lemma_topic_score", "scoring.lemma_topic_score"),
    (scoring, "dict_topic_score", "scoring.dict_topic_score"),
    (scoring, "token_topic_score", "scoring.token_topic_score"),
    (experiment, "run_sweep", "experiment.run_sweep"),
    (models, "load_toy_model", "experiment.load"),
    (experiment, "load_toy_model", "experiment.load"),
    (topics, "load_topic_model", "experiment.load"),
    (experiment, "load_topic_model", "experiment.load"),
    (experiment, "load_corpus", "experiment.load"),
    (experiment, "write_report_csv", "experiment.write_csv"),
    (scoring, "write_report_csv", "experiment.write_csv"),
)

LAYERS = ("bench", "experiment", "decoding", "reweight", "models", "topics", "stemmer", "scoring")


class Tracer:
    """Records spans while installed; ``num_beams`` sizes the candidate count."""

    def __init__(self, num_beams: int) -> None:
        self.num_beams = num_beams
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._stems: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _value_hook(self, span: str):
        """(hook, parent span id or None): what a span records as its value."""
        if span == "models.validate_ids":
            return (lambda args, result: len(args[1])), None
        if span.startswith("decoding.generate_"):
            return (lambda args, result: len(result.tokens)), None
        if span == "stemmer.stem":
            seen = self._stems
            return (lambda args, result: 0 if args[0] in seen else (seen.add(args[0]) or 1)), None
        if span == "decoding.truncate":
            # Beam search scores the top num_beams finite entries of each
            # truncated vector; count them only for calls made by beam search.
            k = self.num_beams
            return (lambda args, result: min(k, int(np.count_nonzero(np.isfinite(result))))), \
                self._id("decoding.generate_beam")
        return None, None

    def _wrap(self, fn, span: str):
        nid = self._id(span)
        names, parents, starts, ends, values = self.name, self.parent, self.start, self.end, self.value
        stack = self._stack
        clock = time.perf_counter_ns
        hook, only_under = self._value_hook(span)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            values.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None and (only_under is None or names[max(parents[idx], 0)] == only_under):
                values[idx] = hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, span in PATCHES:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (a round or a set-up).

        A root span starts a fresh count of distinct stemmed words, so the
        distinct share describes one round and not the rounds before it.
        """
        if len(self._stack) == 1:
            self._stems.clear()
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self.value.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-name totals of the spans under roots of one name (e.g. bench.round)."""

    def __init__(self, tracer: Tracer, root: str) -> None:
        a = tracer.arrays()
        n = a["name"].size
        index = np.arange(n)
        is_root = a["parent"] < 0
        root_of = np.maximum.accumulate(np.where(is_root, index, 0))
        keep = a["name"][root_of] == tracer.names.index(root) if root in tracer.names else np.zeros(n, bool)
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(tracer.names)
        names = a["name"][keep]
        self.names = tracer.names
        self.roots = int(np.count_nonzero(keep & is_root))
        self.wall_ns = float(dur[keep & is_root].sum())
        self._calls = np.bincount(names, minlength=k)
        self._total_ns = np.bincount(names, weights=dur[keep], minlength=k)
        self._self_ns = np.bincount(names, weights=self_time[keep], minlength=k)
        self._values = np.bincount(names, weights=a["value"][keep].astype(np.float64), minlength=k)

    def _pick(self, table: np.ndarray, *spans: str) -> float:
        return float(sum(table[self.names.index(s)] for s in spans if s in self.names))

    def calls(self, *spans: str) -> float:
        return self._pick(self._calls, *spans)

    def total_ms(self, *spans: str) -> float:
        return self._pick(self._total_ns, *spans) / 1e6

    def self_ms(self, *spans: str) -> float:
        return self._pick(self._self_ns, *spans) / 1e6

    def value(self, *spans: str) -> float:
        return self._pick(self._values, *spans)

    def layer_self_ms(self, layer: str) -> float:
        return self.self_ms(*[s for s in self.names if s.split(".")[0] == layer])
