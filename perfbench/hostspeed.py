"""Fixed pieces of benchmark-owned work, timed next to every operation.

The benchmark host is shared, and other tenants slow this process by 1.5-2x
for spells of a fraction of a second to many minutes. A probe runs the same
work every time, so its duration tracks how fast the host is running this
process at that moment. Interpreter-bound and numpy-bound code slow down by
different amounts under the same load, so a workload picks the probe that
resembles its own hot path. No probe calls the package, so no change to the
package can move it.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

_WORDS = ("conviction", "testimony", "prosecutor", "satellite", "astronaut", "running",
          "happily", "gravitational", "courts", "planets") * 80
_SUFFIXES = ("ational", "ing", "ed", "ness", "ful", "s")


def _interpreter_work(data: np.ndarray) -> int:
    """Character loops and suffix tests over short strings, like stemming."""
    total = 0
    for word in _WORDS:
        vowels = 0
        for i, ch in enumerate(word):
            if ch in "aeiou" or (ch == "y" and i > 0):
                vowels += 1
        for suffix in _SUFFIXES:
            if word.endswith(suffix):
                word = word[: -len(suffix)]
                break
        total += vowels + len(word)
    return total


def _numpy_work(data: np.ndarray) -> int:
    """A stable descending sort and an exp over 50,000 floats, like truncation."""
    order = np.argsort(-data, kind="stable")
    return int(order[0]) + int(np.exp(data - data[order[0]]).argmax())


class HostProbe:
    """Callable that runs one probe and returns its duration in seconds."""

    KINDS = {"interpreter": _interpreter_work, "numpy": _numpy_work}

    def __init__(self, kind: str) -> None:
        self._work = self.KINDS[kind]
        self._data = np.random.default_rng(0).normal(size=50_000)
        self.times: list[float] = []
        self.around = nullcontext  # a traced run wraps each probe in a span

    def __call__(self) -> float:
        with self.around():
            start = time.perf_counter()
            self._work(self._data)
            elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def fill(self, seconds: float) -> None:
        """Probe back to back for ``seconds``, so the fastest probe of a run is
        taken from thousands of samples, not only those next to operations."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self()
