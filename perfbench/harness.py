"""Runs one workload: set-up, warm-up, timed rounds, oracles, metrics."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import topicsteer
from hostspeed import HostProbe
from spans import LAYERS, SpanTable, Tracer
from workloads import STRATEGIES, WORKLOADS, FixtureSweep, make_up

SETUPS = 31  # set-up is repeated and its median reported
# Probing between set-ups spreads them over a few seconds, across several of
# the host's slow spells, and gives the run thousands of probe samples.
SETUP_PAUSE_S = 0.1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _rounds(workload, state, seconds: float, probe: HostProbe) -> list:
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round(state, probe))
    return rounds


def _traced_rounds(workload, state, seconds: float, probe: HostProbe, tracer: Tracer) -> tuple[list, list]:
    """Traced and untraced rounds in turn, so both see the same host load."""
    traced, untraced = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        if len(traced) == len(untraced):
            probe.around = lambda: tracer.span("bench.probe")
            try:
                with tracer.installed(), tracer.span("bench.round"):
                    traced.append(workload.run_round(state, probe))
            finally:
                probe.around = nullcontext
        else:
            untraced.append(workload.run_round(state, probe))
    return traced, untraced


def at_reference_speed(rounds, reference_probe_s: float) -> dict:
    """Round and per-strategy times at the run's fastest observed host speed.

    Each operation's time is scaled by the reference probe time over the mean
    of the probes run next to it; the rest of a round (loading, CSV writing,
    glue) by the round's median probe. Each operation then contributes the
    median of its scaled times across rounds.
    """
    count = len(rounds[0].ops)
    if any(len(r.ops) != count for r in rounds):
        raise ValueError("rounds ran different operations")
    gen = np.median([[op.gen_s * reference_probe_s / op.probe_s for op in r.ops] for r in rounds], axis=0)
    score = np.median([[op.score_s * reference_probe_s / op.probe_s for op in r.ops] for r in rounds], axis=0)
    other = statistics.median(
        (r.wall_s - sum(op.gen_s + op.score_s for op in r.ops) - sum(r.probes))
        * reference_probe_s / statistics.median(r.probes)
        for r in rounds)
    strategies = [op.strategy for op in rounds[0].ops]
    tokens = [op.tokens for op in rounds[0].ops]
    times = {"round_s": float(gen.sum() + score.sum() + other), "score_s": float(score.sum())}
    for strategy in STRATEGIES:
        mine = [i for i, s in enumerate(strategies) if s == strategy]
        times[f"{strategy}_s"] = float(gen[mine].sum())
        times[f"{strategy}_tokens"] = sum(tokens[i] for i in mine)
        times[f"{strategy}_rows"] = len(mine)
    return times


def _end_to_end(rounds, setup_times, reference_probe_s: float) -> dict:
    times = at_reference_speed(rounds, reference_probe_s)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "rows_per_s": (rounds[0].rows / times["round_s"], "rows/s"),
    }
    for strategy in STRATEGIES:
        seconds = times[f"{strategy}_s"]
        metrics[f"{strategy}_tokens_per_s"] = (times[f"{strategy}_tokens"] / seconds if seconds else 0.0, "tokens/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def _per_layer(tracer: Tracer, untraced_rows_per_s: float, rounds,
               reference_probe_s: float) -> tuple[dict, list[str], list[str]]:
    run = SpanTable(tracer, "bench.round")
    setup = SpanTable(tracer, "bench.setup")
    rows = sum(r.rows for r in rounds)
    beam_tokens = run.value("decoding.generate_beam")
    stem_calls = run.calls("stemmer.stem")
    per_row = {
        "models.next_logits.calls": (run.calls("models.next_logits"), "calls/row"),
        "models.next_logits.ms": (run.total_ms("models.next_logits"), "ms/row"),
        "models.validate_ids.ids": (run.value("models.validate_ids"), "ids/row"),
        "models.validate_ids.ms": (run.total_ms("models.validate_ids"), "ms/row"),
        "reweight.chain_apply.calls": (run.calls("reweight.chain_apply"), "calls/row"),
        "reweight.chain_apply.ms": (run.total_ms("reweight.chain_apply"), "ms/row"),
        "decoding.truncate.calls": (run.calls("decoding.truncate"), "calls/row"),
        "decoding.truncate.ms": (run.total_ms("decoding.truncate"), "ms/row"),
        "decoding.softmax.ms": (run.total_ms("decoding.softmax"), "ms/row"),
        "decoding.generate.self_ms": (run.self_ms("decoding.generate", *[f"decoding.generate_{s}" for s in STRATEGIES]),
                                      "ms/row"),
        "scoring.score_summary.ms": (run.total_ms("scoring.score_summary"), "ms/row"),
        "scoring.rouge_l_f1.ms": (run.total_ms("scoring.rouge_l_f1"), "ms/row"),
        "scoring.lemma_topic_score.ms": (run.total_ms("scoring.lemma_topic_score"), "ms/row"),
        "scoring.dict_topic_score.ms": (run.total_ms("scoring.dict_topic_score"), "ms/row"),
        "scoring.token_topic_score.ms": (run.total_ms("scoring.token_topic_score"), "ms/row"),
        "stemmer.stem.calls": (stem_calls, "calls/row"),
        "stemmer.stem.ms": (run.total_ms("stemmer.stem"), "ms/row"),
        "experiment.write_csv.ms": (run.total_ms("experiment.write_csv"), "ms/row"),
        "trace.wall_ms": (run.wall_ns / 1e6, "ms/row"),
        **{f"{layer}.self_ms": (run.layer_self_ms(layer), "ms/row") for layer in LAYERS},
    }
    # Only run_sweep expands topics inside a round; elsewhere topics.self_ms
    # would read 0 on every run, so the topics layer is reported per set-up.
    del per_row["topics.self_ms"]
    metrics = {name: (value / rows, unit) for name, (value, unit) in per_row.items()}
    metrics["decoding.beam.candidates_per_token"] = (run.value("decoding.truncate") / beam_tokens, "cand/token")
    metrics["stemmer.stem.distinct_per_call"] = (run.value("stemmer.stem") / stem_calls, "ratio")
    metrics["topics.topic_token_set.calls"] = (setup.calls("topics.topic_token_set") / setup.roots, "calls/setup")
    metrics["topics.topic_token_set.ms"] = (setup.total_ms("topics.topic_token_set") / setup.roots, "ms/setup")
    metrics["experiment.load.ms"] = (setup.total_ms("experiment.load") / setup.roots, "ms/setup")
    traced_rows_per_s = rounds[0].rows / at_reference_speed(rounds, reference_probe_s)["round_s"]
    metrics["trace.overhead_pct"] = (100.0 * (untraced_rows_per_s / traced_rows_per_s - 1.0), "%")

    layer_self = {layer: run.layer_self_ms(layer) / rows for layer in LAYERS}
    errors = []
    if abs(sum(layer_self.values()) * rows - run.wall_ns / 1e6) > 1e-6 * run.wall_ns / 1e6:
        errors.append(f"trace: layer self times sum to {sum(layer_self.values()) * rows} ms, "
                      f"wall is {run.wall_ns / 1e6} ms")
    info = [
        f"trace: rows/s untraced {untraced_rows_per_s:.3f}, traced {traced_rows_per_s:.3f} "
        f"(overhead {metrics['trace.overhead_pct'][0]:.1f}%)",
        "trace: self ms/row by layer " + ", ".join(f"{layer} {layer_self[layer]:.3f}" for layer in LAYERS)
        + f"; sum {sum(layer_self.values()):.3f}, wall {metrics['trace.wall_ms'][0]:.3f}",
    ]
    for span in ("models.next_logits", "reweight.chain_apply", "decoding.truncate", "stemmer.stem"):
        if run.calls(span):
            info.append(f"trace: {span} {1000.0 * run.total_ms(span) / run.calls(span):.2f} us/call")
    return metrics, info, errors


def run(name: str, seed: int, seconds: float, traced: bool, work_root: Path) -> int:
    src = Path(topicsteer.__file__).resolve().parent
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        workload = WORKLOADS[name]()
        workload.prepare(seed, work)
        tracer = Tracer(num_beams=workload.generation.num_beams) if traced else None
        probe = HostProbe(workload.probe_kind)
        # Set-up (JSON parsing, dict and vocabulary building) is interpreter-bound
        # in every workload, so it is scaled by the interpreter probe.
        setup_probe = HostProbe("interpreter")
        setups = []
        with tracer.installed() if tracer else nullcontext():
            for _ in range(SETUPS):
                gc.collect()  # each set-up starts from the same heap, not the previous one's garbage
                before = setup_probe()
                with tracer.span("bench.setup") if tracer else nullcontext():
                    t0 = time.perf_counter()
                    state = workload.setup()
                    elapsed = time.perf_counter() - t0
                setups.append((elapsed, (before + setup_probe()) / 2))
                setup_probe.fill(SETUP_PAUSE_S / 2)
                probe.fill(SETUP_PAUSE_S / 2)
        workload.warm_up(state, probe)
        untraced = []
        if tracer:
            rounds, untraced = _traced_rounds(workload, state, seconds, probe, tracer)
        else:
            rounds = _rounds(workload, state, seconds, probe)
        reference_probe_s = min(probe.times)
        if not tracer:
            fastest = min(setup_probe.times)
            metrics = _end_to_end(rounds, [t * fastest / p for t, p in setups], reference_probe_s)

        failures = rounds[0].failures
        errors = workload.check(state, rounds[0].outputs)
        if any(r.outputs != rounds[0].outputs for r in rounds + untraced):
            errors.append(f"{name}: outputs differ between rounds")
        info = [make_up(state, workload.conditions(rounds[0].outputs)),
                f"rounds: {len(rounds)}{' traced' if tracer else ''}, rows/round {rounds[0].rows}, "
                f"measured {sum(r.wall_s for r in rounds):.2f} s"]
        times = at_reference_speed(rounds, reference_probe_s)
        info.append("ms/row at reference speed: " + ", ".join(
            f"{s} {1000.0 * times[f'{s}_s'] / times[f'{s}_rows']:.2f}" for s in STRATEGIES)
            + f", scoring {1000.0 * times['score_s'] / rounds[0].rows:.2f}; round {times['round_s']:.3f} s")
        probes = [p for r in rounds for p in r.probes]
        info.append(f"host: probe {1000.0 * reference_probe_s:.3f} ms at best, "
                    f"{1000.0 * statistics.median(probes):.3f} ms median over the rounds; raw round time "
                    f"median {statistics.median(r.wall_s for r in rounds):.3f} s, "
                    f"raw setup median {statistics.median(t for t, _ in setups):.4f} s")
        if isinstance(workload, FixtureSweep):
            info.append(f"report.csv sha256 {workload.digest(rounds[0].outputs)} (master seed {seed})")
        if tracer:
            untraced_rows_per_s = untraced[0].rows / at_reference_speed(untraced, reference_probe_s)["round_s"]
            metrics, trace_info, trace_errors = _per_layer(tracer, untraced_rows_per_s, rounds, reference_probe_s)
            info += trace_info
            errors += trace_errors
            tracer.save(work_root / f"trace-{name}.npz")

        attempted = sum(r.rows for r in rounds)
        failed = sum(r.failed for r in rounds)
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
            "attempted": attempted, "failed": failed, "rounds": len(rounds),
            "cpu": _cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "package": str(src.relative_to(work_root.parent)) if src.is_relative_to(work_root.parent) else str(src),
            "probe_ms": {"best": 1000.0 * reference_probe_s, "median": 1000.0 * statistics.median(probes)},
            "failures": failures[:5], "errors": errors[:20],
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }
        with open(work_root / "runs.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        for line in info:
            print(line)
        print("run: " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
        for failure in failures[:5]:
            print(f"OPERATION FAILED: {failure}", file=sys.stderr)
        for error in errors[:20]:
            print(f"CHECK FAILED: {error}", file=sys.stderr)
        print(json.dumps({
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
