"""Large-deviations objects for the Poisson layer.

Covers the conditional rate function of a Poisson count around a fixed rate,
its lattice sharp-asymptotics prefactor, exact Poisson tails (the oracle
used throughout the tests), and the compound variable Pois(X) that drives
the balanced resampling regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleTargetError
from .numerics import Interval, find_root_increasing, log_gamma, regularized_lower_gamma
from .rates import RateDistribution

__all__ = [
    "PoissonLDP",
    "CompoundZ",
    "poisson_rate",
    "psi_exact",
    "pmf_exact",
    "log_pmf_poisson",
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
    if n_times_a < 0.0:
        raise DomainError(f"count threshold must be nonnegative, got {n_times_a}")
    nearest = round(n_times_a)
    if abs(n_times_a - nearest) <= _INT_TOL:
        return int(nearest)
    return int(math.ceil(n_times_a))


def exact_count(n_times_a: float) -> int:
    """Integer value of N*a, erroring when it is fractional beyond 1e-9."""
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


def log_pmf_poisson(mean: float, k: int) -> float:
    """log P(Pois(mean) = k), with the mean = 0 point mass handled."""
    if mean < 0.0 or k < 0:
        raise DomainError(f"invalid Poisson pmf arguments mean={mean}, k={k}")
    if mean == 0.0:
        return 0.0 if k == 0 else -math.inf
    return k * math.log(mean) - mean - log_gamma(k + 1.0)


def psi_exact(N: float, a: float, x: float) -> float:
    """Exact tail P(Pois(N*x) >= ceil(N*a)).

    Evaluated through the regularized incomplete gamma identity
    P(Pois(m) >= k) = P(k, m); linear-space output, so values below roughly
    1e-300 underflow to zero (the asymptotic modules cover that range).
    """
    if N <= 0.0:
        raise DomainError(f"N must be positive, got {N}")
    if x < 0.0:
        raise DomainError(f"rate x must be nonnegative, got {x}")
    k = ceil_count(N * a)
    if k == 0:
        return 1.0
    return regularized_lower_gamma(float(k), N * x)


def pmf_exact(N: float, a: float, x: float) -> float:
    """Exact point mass P(Pois(N*x) = N*a) for integer N*a."""
    if N <= 0.0:
        raise DomainError(f"N must be positive, got {N}")
    if x < 0.0:
        raise DomainError(f"rate x must be nonnegative, got {x}")
    k = exact_count(N * a)
    return math.exp(log_pmf_poisson(N * x, k))


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

    def g(u: float) -> float:
        return u * float(dist.cgf(u - 1.0)[1]) - a

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
