"""Large-deviations objects for the Poisson layer.

Covers the count conventions for a real threshold N*a and the conditional
rate function of a Poisson count around a fixed rate with its lattice
sharp-asymptotics prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "PoissonLDP",
    "poisson_rate",
    "ceil_count",
    "exact_count",
]

_INT_TOL = 1e-9


def ceil_count(n_times_a: float) -> int:
    """Smallest integer k with k >= n_times_a, snapping near-integers.

    This is the shared convention for turning a real threshold N*a into the
    integer count defining the event {count >= N*a}.
    """
    if not 0.0 <= n_times_a < math.inf:
        raise DomainError(f"count threshold must be finite and nonnegative, got {n_times_a}")
    nearest = round(n_times_a)
    if abs(n_times_a - nearest) <= _INT_TOL:
        return int(nearest)
    return int(math.ceil(n_times_a))


def exact_count(n_times_a: float) -> int:
    """Integer value of N*a, erroring when it is fractional beyond 1e-9."""
    if not math.isfinite(n_times_a):
        raise DomainError(f"count must be finite, got N*a = {n_times_a}")
    nearest = round(n_times_a)
    if abs(n_times_a - nearest) > _INT_TOL:
        raise DomainError(
            f"point probabilities need an integer count, got N*a = {n_times_a}"
        )
    if nearest < 0:
        raise DomainError(f"count must be nonnegative, got {n_times_a}")
    return int(nearest)


@dataclass(frozen=True)
class PoissonLDP:
    """Rate function data of a Poisson(x) sample mean at target level a.

    ``prefactor`` is the upper-tail sharp-asymptotics constant
    1/(1 - e^{-theta_star}) / sqrt(2 pi a); it is only defined for a > x
    (upper deviations) and is None otherwise.
    """

    a: float
    x: float
    rate: float
    theta_star: float
    prefactor: float | None


def poisson_rate(a: float, x: float) -> PoissonLDP:
    """Poisson rate function I(a|x) = a log(a/x) - a + x with tilt and prefactor."""
    if not (a > 0.0 and x > 0.0):
        raise DomainError(f"poisson_rate requires positive arguments, got a={a}, x={x}")
    theta = math.log(a / x)
    rate = a * theta - a + x
    prefactor = None
    if a > x:
        prefactor = 1.0 / (-math.expm1(-theta)) / math.sqrt(2.0 * math.pi * a)
    return PoissonLDP(a=a, x=x, rate=max(rate, 0.0), theta_star=theta, prefactor=prefactor)
