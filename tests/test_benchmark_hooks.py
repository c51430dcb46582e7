"""The fixture-sweep benchmark workload times each row through two module globals of ``topicsteer.experiment``.

``perfbench/workloads.py`` swaps ``experiment.generate`` and
``experiment.score_summary`` for timed versions during a round, and bills one
operation per ``generate`` call, with the scores that follow it. A sweep that
stopped calling either through the module would still write the same report,
while the benchmark counted no operations or no scoring time; this test runs
one round of the workload so that such a change fails here.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from hostspeed import HostProbe  # noqa: E402


def test_fixture_sweep_round_bills_one_operation_per_decode(tmp_path):
    workload = workloads.FixtureSweep()
    workload.prepare(1, tmp_path)
    state = workload.setup()
    result = workload.run_round(state, HostProbe("interpreter"))
    assert (result.rows, result.failed) == (450, 0)
    assert workload.check(state, result.outputs) == []
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    assert len(result.ops) == manifest["decodes"] == 400
    assert all(op.gen_s > 0 and op.score_s > 0 for op in result.ops)
