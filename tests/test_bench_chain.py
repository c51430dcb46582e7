"""Micro-benchmark of one chain rewrite: bound per call vs bound once per stepping table.

Deselected by default; run with ``PYTHONPATH=src python -m pytest -m bench
tests/test_bench_chain.py``. The "per_call" path binds the chain
(``ProcessorChain.bind``) for the block it is given on every call: it
range-checks the topic ids and lays out their flat indices before it
rewrites. A stepping table (``decoding._StepTable``) binds once and each
step only rewrites (the "bound" path). Both are timed on
fresh copies of the same (rows, V) block of N(0, 3) logits, for a shift of
5 and for threshold selection over V // 10 topic ids, and must write the
same bytes.
"""

import numpy as np
import pytest

from topicsteer.reweight import ReweightConfig, build_chain

CONFIGS = {
    "shift": ReweightConfig(method="constant_shift", c=5.0),
    "threshold": ReweightConfig(method="threshold_selection", theta=1e-4, beta=1.0),
}


@pytest.mark.bench
@pytest.mark.parametrize("shape", [(1, 226), (4, 226), (4, 50_000)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("method", sorted(CONFIGS))
@pytest.mark.parametrize("path", ["per_call", "bound"])
def test_chain_rewrite(benchmark, shape, method, path):
    rows, size = shape
    rng = np.random.default_rng(size)
    block = rng.normal(0.0, 3.0, shape)
    chain = build_chain(CONFIGS[method], rng.choice(size, size // 10, replace=False).tolist())
    rewrite = chain.bind(rows, size)
    if path == "per_call":
        def rewrite(x):
            return chain.bind(*x.shape)(x)
    out = benchmark.pedantic(rewrite, setup=lambda: ((block.copy(),), {}), rounds=2_000, warmup_rounds=50)
    assert out.tobytes() == chain.bind(rows, size)(block.copy()).tobytes()
    assert out.tobytes() == np.array([chain.apply(row) for row in block]).tobytes()
