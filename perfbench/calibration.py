"""Host speed calibration: fixed work, run between operations, that never
touches the package.

The host's speed drifts by up to 2x over seconds to minutes, whatever runs
on it, so raw times of the same code differ from run to run by more than a
change to the code would move them.  Each workload has a chunk of the same
kind of work as its hot loop, so that host contention slows the chunk about
as much as it slows the workload:

* ``search`` and ``traces``: interpreter-bound Python around small numpy
  calls, like the reduced-step loop of ``optimal-time`` and the per-row
  trace loops;
* ``oracle``: the full walk's arc-table gathers, memory-bound numpy
  indexing over arrays larger than the L2 cache.

After each operation a pass owes CALIBRATION_SHARE of the operation's
latency in chunks, and pays whenever a chunk's worth is owed, so the
chunks sample the host evenly over the pass.  The pass's host factor is
their mean time over the chunk's reference time (about its typical time
on a 2-vCPU Intel Xeon KVM guest with Python 3.11 and numpy 2.4); a
pass's timings divided by it are seconds at the reference speed.
"""

from __future__ import annotations

import time

import numpy as np

#: Share of each pass spent on calibration chunks, spread over the pass.
CALIBRATION_SHARE = 0.05

_PRODUCT = np.arange(25.0).reshape(5, 5) / 50


def interpreter_chunk() -> None:
    """An integer loop in the interpreter and a chain of 5x5 products."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    x = np.ones(5)
    for _ in range(300):
        x = _PRODUCT @ x


class GatherChunk:
    """A complex128 gather through a fixed permutation of 2**20 entries:
    16 MiB read at random, eight times the L2 cache."""

    SIZE = 1 << 20

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.standard_normal(self.SIZE) + 1j * rng.standard_normal(self.SIZE)
        self.index = rng.permutation(self.SIZE)
        self.out = np.empty_like(self.table)

    def __call__(self) -> None:
        np.take(self.table, self.index, out=self.out)


def chunk_for(workload: str):
    """The workload's chunk and its reference time in seconds."""
    if workload == "oracle":
        return GatherChunk(), 20e-3
    return interpreter_chunk, 2.5e-3


class HostSpeed:
    """How slow the host runs during one pass, from calibration chunks run
    between operations, outside their timing.

    Whenever a chunk's worth of calibration is owed, one untimed chunk runs
    first, so that the timed ones find their data in cache whatever the
    operation before them left there: the factor follows the host, not the
    package's cache footprint."""

    def __init__(self, chunk, reference_s: float):
        self.chunk = chunk
        self.reference_s = reference_s
        self.owed = 0.0
        self.spent = 0.0
        self.chunks = 0

    def sample(self, busy_s: float) -> None:
        self.owed += CALIBRATION_SHARE * busy_s
        if self.owed < self.reference_s:
            return
        perf = time.perf_counter
        self.chunk()
        while self.owed > 0:
            begin = perf()
            self.chunk()
            took = perf() - begin
            self.spent += took
            self.owed -= took
            self.chunks += 1

    def factor(self) -> float:
        if self.chunks == 0:
            self.owed = max(self.owed, self.reference_s)
            self.sample(0.0)
        return self.spent / self.chunks / self.reference_s
