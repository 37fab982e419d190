"""Reference kernels that track how fast the processor is running right now.

On a shared virtual machine the processors slow down by 1.3x to 2x, for
a fraction of a second up to minutes at a time, when other tenants load
the host.  A fixed kernel run between the operations, for a fixed share
of the time, slows down with them.  Each window of a run has its times multiplied by
(REFERENCE_MS / median kernel time in that window) ** EXPONENT and
reported as time at the reference speed.  The kernels never call dhym, so
a change to dhym moves the corrected times exactly as it moves the raw
ones; the raw times are kept in each result's context line.

Two kernels, because the slow-down depends on the kind of work: Python
object churn with small numpy calls (the scalar API, winding reports,
Hermitian pairs, imports) and large-array numpy passes (the identity
suite, the sampler).  Each workload names the kernel that resembles it.
Neither kernel nor REFERENCE_MS may change once published: results are
comparable only under the same ones.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: kernel time in ms on the reference machine (Intel Xeon, 2 vCPUs on a
#: shared host) at its unloaded speed
REFERENCE_MS = {"python": 2.0, "array": 11.5}

#: how the operations' slow-down scales with the kernel's, measured on the
#: reference machine: when the Python kernel ran 2x slower, the
#: Python-bound operations ran 1.4x to 1.9x slower, depending on the day;
#: the array kernel and the array operations slow down alike
EXPONENT = {"python": 0.75, "array": 1.0}


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def python_kernel() -> float:
    """Small frozen dataclasses, math calls, sorting, dicts, tiny arrays."""
    acc = 0.0
    table = {}
    for i in range(800):
        p = _Point(float(i), math.atan(i * 1e-3))
        row = tuple(sorted((p.y, p.x, 1.0)))
        table[i % 64] = row
        acc += math.sqrt(row[0] * row[0] + 1.0)
    x = np.arange(8.0)
    for _ in range(80):
        acc += float(np.polyval(x, 0.5)) + float(np.sum(np.arctan(x)))
    return acc + len(table)


_ROWS = np.sin(7.3 * np.linspace(-10.0, 10.0, 4 * 50_000)).reshape(-1, 4) * 10.0


def array_kernel() -> float:
    """Row sort, sigma table, complex product and arctan sum on 50000 x 4."""
    lam = np.sort(_ROWS, axis=1)
    e = np.zeros((lam.shape[0], 5))
    e[:, 0] = 1.0
    for j in range(4):
        for k in range(j + 1, 0, -1):
            e[:, k] += lam[:, j] * e[:, k - 1]
    prod = np.prod(1.0 + 1j * lam, axis=1)
    phase = np.arctan(lam).sum(axis=1)
    return float(np.abs(prod).max() + phase.max() + e.max())


KERNELS = {"python": python_kernel, "array": array_kernel}


class SpeedProbe:
    """Runs one kernel between measurements for a fixed share of the time."""

    def __init__(self, kind: str, share: float):
        self.kind = kind
        self.share = share
        self.spent = 0.0
        self._kernel = KERNELS[kind]
        self._kernel()  # the first call pays for lazy set-up

    def keep_up(self, busy_s: float, out: list):
        """Run the kernel until it has had `share` of `busy_s` plus its own
        time; append each kernel time in ms to `out`."""
        while self.spent < self.share / (1.0 - self.share) * busy_s:
            start = perf_counter()
            self._kernel()
            took = perf_counter() - start
            self.spent += took
            out.append(1e3 * took)

    def factor(self, samples) -> float:
        """Scale that takes a time measured next to these kernel samples
        to the reference speed."""
        return (REFERENCE_MS[self.kind] / statistics.median(samples)) ** EXPONENT[self.kind]
