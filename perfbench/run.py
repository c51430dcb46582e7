"""topicsteer benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload fixture-sweep --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` of the checkout it sits in, makes the
workload's inputs from ``--seed``, times the program's set-up calls several
times, runs whole rounds of the workload for ``--seconds``, checks every
output against the oracles in ``oracles.py`` and prints, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the package is traced from outside and the metrics are per layer. Scratch
files and saved spans go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one single-threaded process per workload

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fixture-sweep", "large-vocab", "long-prompt"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    package = ROOT / "src" / "topicsteer" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no package source at {package.relative_to(ROOT)}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness  # noqa: E402  (needs the paths above)

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench_work")


if __name__ == "__main__":
    sys.exit(main())
