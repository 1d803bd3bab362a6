"""Infinite-server layer: service-time laws, slot retention probabilities,
sharp approximations of the occupancy tail, and crude simulation.

Time is normalized so the observation epoch is 1 and arrivals in slot i of N
get thinned by the retention probability omega_i(N), the chance that such an
arrival is still in service at the observation epoch.  The logarithmic
asymptotics of the occupancy tail live beside their tests
(tests/test_queue.py); no entry point reports them.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, HypothesisWarning, MgfDomainError, RarityError
from .numerics import Interval, exp_or_inf, find_root_increasing, gauss_legendre
from .poisson_ldp import ceil_count
from .rates import RateDistribution, parse_spec, spec_label
from .sampling import EstimatorResult, _count_mean, _run_chunked, _slot_reduce

__all__ = [
    "ServiceTime",
    "ExpService",
    "DetService",
    "Pareto2Service",
    "QueueApprox",
    "LoadVariance",
    "parse_service",
    "omega_vector",
    "mc_Q",
    "theta_star_queue",
    "queue_approx",
    "approx_at_tilt",
    "load_and_variance",
]

# The occupancy integrals over the unit interval use one composite
# Gauss-Legendre rule per service law: _UNIFORM_PANELS equal panels, split at
# the law's kinks, with the first panel graded geometrically (ratio 1/2) toward
# x = 0 down to _GRADING_FLOOR times the service mean.  Each result is checked
# against the rule of half the order on the same panels.
_UNIFORM_PANELS = 16
_ORDER = 20
_GRADING_FLOOR = 1e-12
_REL_TOL = 1e-10
# largest tilt whose factors e^theta and e^(2 theta) stay finite
_THETA_MAX = 350.0


@dataclass(frozen=True)
class ServiceTime:
    """Service-time law described through its complementary cdf."""

    mean: float
    twice_differentiable_on_01 = True

    def __post_init__(self) -> None:
        if not (self.mean > 0.0 and math.isfinite(self.mean)):
            raise DomainError(f"service mean must be positive and finite, got {self.mean}")
        object.__setattr__(self, "mean", float(self.mean))

    def sf(self, x):
        """Complementary distribution function at x >= 0 (a float or an array)."""
        raise NotImplementedError

    def sf_complement(self, x):
        """1 - sf(x), computed without cancellation for small x."""
        raise NotImplementedError

    def sf_integral(self, u, h):
        """Exact integral of sf over [u, u + h], in a closed form without
        cancellation (u a float or an array)."""
        raise NotImplementedError

    def sf_sq_integral_total(self) -> float:
        """Exact integral of sf^2 over [0, infinity)."""
        raise NotImplementedError

    @property
    def breakpoints_in_unit(self) -> tuple[float, ...]:
        """Kink locations of sf strictly inside (0, 1)."""
        return ()


class ExpService(ServiceTime):
    """Exponential service times."""

    kind = "exp"

    def sf(self, x):
        return np.exp(-x / self.mean)

    def sf_complement(self, x):
        return -np.expm1(-x / self.mean)

    def sf_integral(self, u, h):
        E = self.mean
        return E * np.exp(-u / E) * -np.expm1(-h / E)

    def sf_sq_integral_total(self) -> float:
        return 0.5 * self.mean


class DetService(ServiceTime):
    """Deterministic service times; the complementary cdf is an indicator."""

    kind = "det"
    twice_differentiable_on_01 = False

    def sf(self, x):
        return np.where(x < self.mean, 1.0, 0.0)

    def sf_complement(self, x):
        return np.where(x < self.mean, 0.0, 1.0)

    def sf_integral(self, u, h):
        return np.clip(self.mean - u, 0.0, h)

    def sf_sq_integral_total(self) -> float:
        return self.mean

    @property
    def breakpoints_in_unit(self) -> tuple[float, ...]:
        return (self.mean,) if 0.0 < self.mean < 1.0 else ()


class Pareto2Service(ServiceTime):
    """Pareto service times with tail exponent 2 (finite mean, infinite variance)."""

    kind = "pareto"

    def sf(self, x):
        return (1.0 + x / self.mean) ** -2

    def sf_complement(self, x):
        t = x / self.mean
        return t * (2.0 + t) / (1.0 + t) ** 2

    def sf_integral(self, u, h):
        E = self.mean
        return h / ((1.0 + u / E) * (1.0 + (u + h) / E))

    def sf_sq_integral_total(self) -> float:
        return self.mean / 3.0


_SERVICE_KINDS = {"exp": (ExpService, 1), "det": (DetService, 1), "pareto": (Pareto2Service, 1)}


def parse_service(text: str) -> ServiceTime:
    """Parse a service specification: ``exp:<E>``, ``det:<E>`` or ``pareto:<E>``."""
    return parse_spec(text, _SERVICE_KINDS, "service")


def omega_vector(N: int, service: ServiceTime) -> np.ndarray:
    """Retention probabilities omega_i(N) = N * int_{(i-1)/N}^{i/N} sf of
    slots i = 1..N."""
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"slot count must be a positive integer, got {N}")
    i = np.arange(N)
    if isinstance(service, DetService):  # in slot units, exact when N*E is
        return np.clip(N * service.mean - i, 0.0, 1.0)
    return N * service.sf_integral(i / N, 1.0 / N)


def mean_load(dist: RateDistribution, service: ServiceTime) -> float:
    """Scaled mean occupancy at the observation epoch: mean rate times int sf."""
    return dist.mean * float(service.sf_integral(0.0, 1.0))


class _Rule:
    """Composite Gauss-Legendre rule on the unit interval with the service
    law's complementary cdf evaluated at its nodes."""

    def __init__(self, service: ServiceTime, edges: list[float], order: int):
        nodes, self.weights = gauss_legendre(edges, order)
        self.sf = service.sf(nodes)
        self.sf_complement = service.sf_complement(nodes)

    def integrals(self, dist: RateDistribution, tau: float) -> tuple[float, float, float]:
        with np.errstate(over="ignore"):  # an overflow shows as an infinite integral
            k0, k1, k2 = dist.cgf(tau, self.sf, self.sf_complement)
            w, sf = self.weights, self.sf
            return (
                float(np.sum(w * k0)),
                float(np.sum(w * k1 * sf)),
                float(np.sum(w * k2 * sf * sf)),
            )


def _panel_edges(service: ServiceTime) -> list[float]:
    first = 1.0 / _UNIFORM_PANELS
    # the grading stops at the smallest normal float for tiny service means
    floor = max(_GRADING_FLOOR * service.mean, sys.float_info.min)
    depth = max(0, math.ceil(math.log2(first / floor)))
    uniform = [k * first for k in range(_UNIFORM_PANELS + 1)]
    graded = [first * 0.5**j for j in range(1, depth + 1)]
    return sorted({*uniform, *graded, *service.breakpoints_in_unit})


@functools.lru_cache(maxsize=32)
def _rules(service: ServiceTime) -> tuple[_Rule, _Rule]:
    """The rule of a service law and its half-order check rule, built once."""
    edges = _panel_edges(service)
    return _Rule(service, edges, _ORDER), _Rule(service, edges, _ORDER // 2)


def _integrals(
    dist: RateDistribution, service: ServiceTime, tau: float, checked: bool = False
) -> tuple[float, float, float]:
    """Integrals over [0, 1] of CGF(tau sf), CGF'(tau sf) sf and CGF''(tau sf) sf^2.

    With ``checked``, each must agree with the half-order rule to a relative
    _REL_TOL, or ConvergenceError is raised.
    """
    rule, check_rule = _rules(service)
    values = rule.integrals(dist, tau)
    if checked:
        for value, estimate in zip(values, check_rule.integrals(dist, tau)):
            if not abs(value - estimate) <= _REL_TOL * abs(value):
                raise ConvergenceError(
                    f"occupancy quadrature for {dist} and {spec_label(service)} at "
                    f"tau={tau:.12g}: rules of order {_ORDER} and {_ORDER // 2} give "
                    f"{value!r} and {estimate!r}"
                )
    return values


def _tilt_cap_exp(dist: RateDistribution) -> float:
    """Upper limit for theta when the tilt enters through e^theta - 1: the
    linear tilt e^theta - 1 stays a gap of 1e-9 * max(1, sup) inside the MGF
    domain, at a logarithmic sliver of the reachable occupancy range.

    At the cap the integrands have a boundary layer at x = 0 about 1e-9
    service means wide, which the panels graded down to _GRADING_FLOOR service
    means resolve.
    """
    sup = dist.mgf_domain_sup
    return math.inf if math.isinf(sup) else math.log1p(sup - 1e-9 * max(1.0, sup))


def _check_rare(dist: RateDistribution, service: ServiceTime, a: float) -> None:
    """Check that the occupancy level a is finite and above the mean load."""
    if not math.isfinite(a):
        raise DomainError(f"occupancy level must be finite, got {a}")
    load = mean_load(dist, service)
    if not a > load:
        raise RarityError(f"occupancy level a={a} must exceed the mean load {load}")


def theta_star_queue(dist: RateDistribution, service: ServiceTime, a: float) -> float:
    """Tilt making the expected occupancy equal a.

    Solves int_0^1 CGF'(sf(x) (e^t - 1)) sf(x) e^t dx = a, which is strictly
    increasing in t; requires a above the mean load and a tilt within the
    MGF domain.
    """
    _check_rare(dist, service, a)

    def g(theta: float) -> float:
        return math.exp(theta) * _integrals(dist, service, math.expm1(theta))[1] - a

    cap = _tilt_cap_exp(dist)
    try:
        theta = find_root_increasing(
            g, Interval(0.0, min(1.0, cap)), tol=1e-12, lo_limit=0.0,
            hi_limit=min(cap, _THETA_MAX),
        )
    except DomainError:
        if math.isinf(cap):
            raise DomainError(
                f"occupancy level a={a} needs a tilt above {_THETA_MAX:g}, beyond "
                "double precision"
            ) from None
        raise MgfDomainError(
            f"occupancy level a={a} is unreachable: tilts are confined to "
            f"(0, {cap:.6g}] by the MGF domain, which only reaches mean occupancy "
            f"{g(cap) + a:.6g}"
        ) from None
    _integrals(dist, service, math.expm1(theta), checked=True)
    return theta


@dataclass(frozen=True)
class QueueApprox:
    """Sharp occupancy-tail approximation at one (N, a).

    ``hypothesis_violated`` flags service laws whose complementary cdf is not
    twice differentiable on the unit interval (deterministic service); the
    formula is still evaluated, matching how the reference tables are built.
    """

    theta_star: float
    sigma2: float
    log_q_check: float
    log_Q_check: float
    hypothesis_violated: bool

    @property
    def Q_check(self) -> float:
        return exp_or_inf(self.log_Q_check)


def approx_at_tilt(
    dist: RateDistribution,
    service: ServiceTime,
    N: float,
    theta: float,
    a: float | None = None,
    checked: bool = False,
) -> tuple[float, QueueApprox]:
    """Occupancy level and sharp approximation at the tilt theta.

    The level is the mean occupancy a(theta) = e^theta int CGF'(tau sf) sf
    under the tilt, unless ``a``, a level theta was solved for, is given.  No
    HypothesisWarning is issued.  With ``checked``, the quadrature is checked
    and a non-finite log-probability raises ConvergenceError.
    """
    integral_cgf, slope, curvature = _integrals(dist, service, math.expm1(theta), checked)
    if a is None:
        a = math.exp(theta) * slope
    sigma2 = a + curvature * exp_or_inf(2.0 * theta)
    log_q = (
        -theta * N * a
        + N * integral_cgf
        - 0.5 * math.log(2.0 * math.pi * N)
        - 0.5 * math.log(sigma2)
    )
    if checked and not math.isfinite(log_q):
        raise ConvergenceError(f"the sharp approximation at N={N}, a={a} overflows")
    return a, QueueApprox(
        theta_star=theta,
        sigma2=sigma2,
        log_q_check=log_q,
        log_Q_check=log_q - math.log(-math.expm1(-theta)),
        hypothesis_violated=not service.twice_differentiable_on_01,
    )


def queue_approx(dist: RateDistribution, service: ServiceTime, N: float, a: float) -> QueueApprox:
    """Sharp approximation of the occupancy point and tail probabilities.

    Raises RarityError where the tail approximation exceeds 1, which happens
    at levels just above the mean load or at small N.
    """
    if not (N > 0.0 and math.isfinite(N)):
        raise DomainError(f"N must be positive and finite, got {N}")
    theta = theta_star_queue(dist, service, a)
    _, approx = approx_at_tilt(dist, service, N, theta, a=a, checked=True)
    if approx.log_Q_check > 0.0:
        raise RarityError(
            f"the sharp approximation at a={a}, N={N} gives log Q = "
            f"{approx.log_Q_check:.6g} > 0, so the level is not rare enough for it"
        )
    if approx.hypothesis_violated:
        warnings.warn(
            f"{spec_label(service)}: the sharp occupancy formula assumes a twice "
            "differentiable complementary cdf; value computed anyway",
            HypothesisWarning,
            stacklevel=2,
        )
    return approx


def mc_Q(dist: RateDistribution, service: ServiceTime, N: int, a: float, runs: int,
         seed: int) -> EstimatorResult:
    """Crude Monte Carlo for the occupancy tail at level N*a."""
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"N must be a positive integer, got {N}")
    k = ceil_count(N * a)
    omegas = None

    def weights(rng: np.random.Generator, m: int) -> np.ndarray:
        nonlocal omegas
        if omegas is None:  # built on the first chunk, after the budget check
            omegas = omega_vector(N, service)
        lam = _slot_reduce(dist.sample, rng, m, N, lambda x: x @ omegas)
        z = rng.poisson(_count_mean(lam))
        return (z >= k).astype(np.float64)

    return _run_chunked(seed, runs, N + 1, weights)


@dataclass(frozen=True)
class LoadVariance:
    """Mean and variance decomposition of the occupancy."""

    M1: float                  # transient mean, N * mean rate * int_0^1 sf = mean rate * sum omega_i
    M_inf: float               # stationary mean, N * mean rate * mean service
    var_total: float
    var_overdispersion: float  # N * Var(rate) * int_0^inf sf^2
    var_poisson: float         # N * mean rate * mean service


def load_and_variance(dist: RateDistribution, service: ServiceTime, N: int) -> LoadVariance:
    """Occupancy mean and stationary variance split into its two sources."""
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"N must be a positive integer, got {N}")
    m_inf = N * dist.mean * service.mean
    var_over = N * dist.variance * service.sf_sq_integral_total()
    var_pois = N * dist.mean * service.mean
    return LoadVariance(
        M1=N * mean_load(dist, service),
        M_inf=m_inf,
        var_total=var_over + var_pois,
        var_overdispersion=var_over,
        var_poisson=var_pois,
    )
