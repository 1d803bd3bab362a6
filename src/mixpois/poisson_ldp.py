"""Large-deviations objects for the Poisson layer.

Covers the count conventions for a real threshold N*a, the conditional rate
function of a Poisson count around a fixed rate with its lattice
sharp-asymptotics prefactor, and the compound variable Pois(X) that drives
the balanced resampling regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleTargetError
from .numerics import Interval, find_root_increasing
from .rates import RateDistribution

__all__ = [
    "PoissonLDP",
    "CompoundZ",
    "poisson_rate",
    "ceil_count",
    "exact_count",
    "compound_z",
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


@dataclass(frozen=True)
class CompoundZ:
    """Cramer data of the compound count Z = Pois(X) at target level a."""

    dist: RateDistribution
    a: float
    rate: float
    theta_star: float
    variance_at_tilt: float


def compound_z(dist: RateDistribution, a: float) -> CompoundZ:
    """Rate function of Z = Pois(X): solves e^t CGF'(e^t - 1) = a.

    The solve is done in u = e^t, which keeps the equation increasing on
    (0, 1 + mgf_domain_sup).
    """
    if not a > dist.mean:
        raise InfeasibleTargetError(
            f"compound target must exceed the mean {dist.mean}, got a={a}"
        )
    sup = dist.mgf_domain_sup
    u_max = math.inf if math.isinf(sup) else 1.0 + sup - 1e-12 * max(1.0, abs(sup))

    def g(u: float) -> tuple[float, float]:
        _, k1, k2 = dist.cgf(u - 1.0)
        return u * float(k1) - a, float(k1) + u * float(k2)

    # g(1) = mean - a < 0, so the root lies in (1, u_max)
    hint_hi = 2.0 if math.isinf(u_max) else 1.0 + 0.5 * (u_max - 1.0)
    u = find_root_increasing(
        g,
        Interval(1.0, hint_hi),
        tol=1e-13,
        lo_limit=1e-300,
        hi_limit=u_max,
    )
    theta = math.log(u)
    k0, _, k2 = dist.cgf(u - 1.0)
    rate = theta * a - float(k0)
    variance = a + u * u * float(k2)
    return CompoundZ(dist=dist, a=a, rate=rate, theta_star=theta, variance_at_tilt=variance)
