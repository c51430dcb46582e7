"""The fixture-sweep benchmark workload times each row through two module globals of ``topicsteer.experiment``.

``perfbench/workloads.py`` swaps ``experiment.generate`` and
``experiment.score_summary`` for timed versions during a round, and bills one
operation per ``generate`` call, with the scores that follow it. A sweep calls
``score_summary`` once per distinct summary (``RowContext``), so only the
operations whose decode brought a new summary carry scoring time. A sweep that
stopped calling either name through the module would still write the same
report, while the benchmark counted no operations or no scoring time; this
test runs one round of the workload so that such a change fails here.
"""

import json
import sys
from pathlib import Path

from topicsteer import experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from hostspeed import HostProbe  # noqa: E402


def test_fixture_sweep_round_bills_one_operation_per_decode_and_each_scoring_to_one(tmp_path, monkeypatch):
    workload = workloads.FixtureSweep()
    workload.prepare(1, tmp_path)
    state = workload.setup()
    scored = []
    inner = experiment.score_summary
    # installed before the round, so the workload's timed wrapper calls this counter
    monkeypatch.setattr(experiment, "score_summary", lambda *args, **kwargs: scored.append(1) or inner(*args, **kwargs))
    result = workload.run_round(state, HostProbe("interpreter"))
    assert (result.rows, result.failed) == (450, 0)
    assert workload.check(state, result.outputs) == []
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    assert len(result.ops) == manifest["decodes"] == 400
    assert all(op.gen_s > 0 for op in result.ops)
    assert sum(op.score_s > 0 for op in result.ops) == len(scored) == 277
