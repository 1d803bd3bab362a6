"""Correction of wall times for the drifting speed of a shared machine.

On a shared host the speed of a CPU-bound loop drifts by up to 20% from
second to second, which would swamp the differences the benchmark is meant to
resolve.  The benchmark therefore interleaves short slices of a fixed
reference kernel with its operations, and scales each operation's wall time
by the kernel's rate around it, relative to the kernel's rate at the
reference speed.  Times then read as seconds at the reference speed.  The
kernel has the shape of the workload's own work (interpreted Python, or
numpy sampling), because the drift hits the two kinds of work differently;
it does not use the package, so a change to the package does not move it.
Set-up times are scaled the same way by a reference of their own shape, a
fresh interpreter importing numpy (IMPORT_REFERENCE_S).
"""

from __future__ import annotations

import math
import time

import numpy as np

SAMPLE_EVERY_S = 0.5  # wall time between slices, at operation boundaries
SLICE_S = 0.05

_rng = np.random.Generator(np.random.Philox(20170306))
_weights = _rng.random(100)


class _Law:
    def __init__(self, mean: float) -> None:
        self.mean = mean

    def sf(self, x: float) -> float:
        return math.exp(-x / self.mean)


_law = _Law(0.5)


def python_kernel() -> float:
    """Interpreted float arithmetic through small function and method calls,
    the shape of the package's quadrature and CLI work."""
    integrand = lambda x: _law.sf(x) * x  # noqa: E731
    area = 0.0
    for i in range(3_000):
        area += integrand(i * 1e-3)
    return area


def numpy_kernel() -> float:
    """Poisson sampling and a matrix-vector product on 10^5 values, the shape
    of the package's Monte Carlo work."""
    counts = _rng.poisson(0.5, size=100_000).reshape(1000, 100)
    return float((counts @ _weights).sum())


# kernel calls per second at the reference speed
REFERENCE_RATES = {python_kernel: 1000.0, numpy_kernel: 165.0}

# Seconds a fresh interpreter takes to import numpy at the reference speed.
# Set-up is import and loader work, whose time follows neither kernel above;
# each set-up time is scaled instead by the time of ``import numpy`` in a
# fresh interpreter started just after it (setup_probe.py --reference).
IMPORT_REFERENCE_S = 0.1


class SpeedGauge:
    """Scales tracked records' walls to reference seconds.

    A slice of the kernel is timed when the gauge starts and, after a tracked
    record, once SAMPLE_EVERY_S has passed since the last slice.  The records
    tracked between two slices are scaled by the mean rate of the two slices
    over the kernel's reference rate.
    """

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        self._rates: list[float] = []
        self._pending = []
        self._raw = self._scaled = 0.0
        self.sample()

    def track(self, record) -> None:
        self._pending.append(record)
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        calls = 0
        while (now := time.perf_counter()) - start < SLICE_S:
            self._kernel()
            calls += 1
        self._rates.append(calls / (now - start))
        factor = sum(self._rates[-2:]) / len(self._rates[-2:]) / REFERENCE_RATES[self._kernel]
        for record in self._pending:
            self._raw += record.wall
            record.wall *= factor
            self._scaled += record.wall
        self._pending.clear()
        self._last = time.perf_counter()

    def factor(self) -> float:
        """Mean scale applied so far, weighted by the records' walls."""
        return self._scaled / self._raw
