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
from .numerics import Interval, ceil_count, exp_or_inf, find_root_increasing, gauss_legendre
from .rates import RateDistribution, parse_spec, spec_label
from .sampling import EstimatorResult, _occupancy_sampler, _run_blocks

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
    "load_and_variance",
]

# The occupancy integrals over the unit interval use one composite
# Gauss-Legendre rule per smooth service law: _UNIFORM_PANELS equal panels,
# with the first panel graded geometrically (ratio 1/2) toward x = 0 down to
# _GRADING_FLOOR times the service mean.  Each result is checked against the
# rule of half the order on the same panels, and where they disagree, against
# the rule of the full order on halved panels.  Deterministic service takes
# one exact node instead (see _rule).
_UNIFORM_PANELS = 16
_ORDER = 20
_GRADING_FLOOR = 1e-12
_REL_TOL = 1e-10
# largest tilt whose factors e^theta and e^(2 theta) stay finite
_THETA_MAX = 350.0
# level evaluations a tilt gets from a guess before the bracketed search takes over
_NEWTON_EVALS = 4


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


class ExpService(ServiceTime):
    """Exponential service times."""

    kind = "exp"

    def sf(self, x):
        return np.exp(-x / self.mean)

    def sf_complement(self, x):
        return -np.expm1(-x / self.mean)

    def sf_integral(self, u, h):
        # u / E and h / E past 1e300, where the factors are 0 and 1, are capped
        # there, so a subnormal mean E does not overflow them
        E = self.mean
        return E * np.exp(-np.minimum(u, 1e300 * E) / E) * -np.expm1(-np.minimum(h, 1e300 * E) / E)

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


class Pareto2Service(ServiceTime):
    """Pareto service times with tail exponent 2 (finite mean, infinite variance)."""

    kind = "pareto"

    def sf(self, x):
        return (1.0 + x / self.mean) ** -2

    def sf_complement(self, x):
        # the form is 1.0 in floats from t = 1e16 on; capping t at 1e150 keeps
        # its products inside the float range
        E = self.mean
        t = np.minimum(x, 1e150 * E) / E
        return t * (2.0 + t) / (1.0 + t) ** 2

    def sf_integral(self, u, h):
        E = self.mean
        with np.errstate(over="ignore"):
            scale = (1.0 + u / E) * (1.0 + (u + h) / E)
        # where that overflows, as at a mean below about 1e-300, the same value
        # as E times two factors of at most 1
        return np.where(scale < np.inf, h / scale, E * (h / (E + u + h)) * (E / (E + u)))

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
    """Nodes of a count whose CGF is sum_j w_j CGF(tau c_j): the weights w_j,
    the retentions c_j = sf_j and their complements 1 - sf_j, as arrays, or as
    scalars for one node, with the rule ``check`` that checks its integrals
    and ``finer() -> rule`` that settles a disagreement: for a composite
    rule, the rule of half the order on the same panels and the full order
    on halved panels; None for an exact rule and for those rules themselves.

    The weights come pre-multiplied by 1, sf and sf^2, the factors of the
    three integrands, so each integral is one product and one pairwise sum
    (np.add.reduce, no BLAS: the rounding never depends on the BLAS build).
    """

    def __init__(self, weights, sf, sf_complement, check: _Rule | None, finer):
        self.sf = sf
        self.sf_complement = sf_complement
        self.weighted = (weights, weights * sf, weights * sf * sf)
        self.check = check
        self.finer = finer

    def integrals(self, dist: RateDistribution, tau: float) -> tuple[float, float, float]:
        """Sums over the nodes of CGF(tau sf), CGF'(tau sf) sf and CGF''(tau sf)
        sf^2: for a service law's rule, integrals over [0, 1]."""
        # an overflow shows as an infinite integral, and inf * 0 (a two-point
        # curvature whose spread squared overflows) as a NaN one
        with np.errstate(over="ignore", invalid="ignore"):
            k0, k1, k2 = dist.cgf(tau, self.sf, self.sf_complement)
            w0, w1, w2 = self.weighted
            return (
                float(np.add.reduce(w0 * k0, axis=None)),
                float(np.add.reduce(w1 * k1, axis=None)),
                float(np.add.reduce(w2 * k2, axis=None)),
            )

    def checked(self, dist: RateDistribution, tau: float,
                values: tuple[float, float, float]) -> tuple[float, float, float]:
        """``values``, this rule's integrals at tau, once each agrees with the
        check rule's to a relative _REL_TOL, or else with the finer rule's,
        which settles a false alarm of a coarse check rule; ConvergenceError
        otherwise."""
        if self.check is None:
            return values
        for rule in (lambda: self.check, self.finer):  # the finer rule only where needed
            estimates = rule().integrals(dist, tau)
            if all(abs(value - estimate) <= _REL_TOL * abs(value)
                   for value, estimate in zip(values, estimates)):
                return values
        raise ConvergenceError(
            f"occupancy quadrature for {dist} at tau={tau:.12g}: rules of order {_ORDER} on the "
            f"panels and on halved panels give {values!r} and {estimates!r}")


class _UnitRule(_Rule):
    """One node at full retention, of weight w: its integrals are the CGF
    triple times w.  At w = 1 it is the compound count Pois(X) of the
    balanced overflow regime.  The rule is exact, so it has no check rule."""

    def integrals(self, dist: RateDistribution, tau: float) -> tuple[float, float, float]:
        w0, w1, w2 = self.weighted
        with np.errstate(over="ignore", invalid="ignore"):
            k0, k1, k2 = dist.cgf(tau, 1.0, 0.0)
            return float(w0 * k0), float(w1 * k1), float(w2 * k2)


_UNIT_RULE = _UnitRule(1.0, 1.0, 0.0, None, None)


def _panel_edges(service: ServiceTime) -> list[float]:
    first = 1.0 / _UNIFORM_PANELS
    # the grading stops at the smallest normal float for tiny service means
    floor = max(_GRADING_FLOOR * service.mean, sys.float_info.min)
    depth = max(0, math.ceil(math.log2(first / floor)))
    uniform = [k * first for k in range(_UNIFORM_PANELS + 1)]
    graded = [first * 0.5**j for j in range(1, depth + 1)]
    return sorted({*uniform, *graded})


@functools.lru_cache(maxsize=32)
def _rule(service: ServiceTime) -> _Rule:
    """The occupancy rule of a service law on the unit interval, built once:
    for deterministic service of mean E, whose sf is 1 on [0, E) and 0 after,
    the exact node of weight min(E, 1), as CGF(0) = 0; for the others the
    composite Gauss-Legendre rule, with its half-order check rule and the
    full-order rule on halved panels, built on first need, once."""
    if isinstance(service, DetService):
        return _UnitRule(min(service.mean, 1.0), 1.0, 0.0, None, None)
    edges = _panel_edges(service)

    def rule(edges: list[float], order: int, check: _Rule | None, finer) -> _Rule:
        x, w = gauss_legendre(edges, order)
        return _Rule(w, service.sf(x), service.sf_complement(x), check, finer)

    halved = sorted(edges + [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])])
    return rule(edges, _ORDER, rule(edges, _ORDER // 2, None, None),
                functools.cache(lambda: rule(halved, _ORDER, None, None)))


def _tilt_cap_exp(dist: RateDistribution) -> float:
    """Upper limit for theta when the tilt enters through e^theta - 1: the
    linear tilt e^theta - 1 stays a gap of 1e-9 * max(1, sup) inside the MGF
    domain, at a logarithmic sliver of the reachable occupancy range, and
    theta stays at most _THETA_MAX.  A domain of sup <= 1e-9 leaves no
    positive tilt: MgfDomainError.

    At the cap the integrands have a boundary layer at x = 0 about 1e-9
    service means wide, which the panels graded down to _GRADING_FLOOR service
    means resolve.
    """
    sup = dist.mgf_domain_sup
    if math.isinf(sup):
        return _THETA_MAX
    cap = math.log1p(sup - 1e-9 * max(1.0, sup))
    if not cap > 0.0:
        raise MgfDomainError(f"{spec_label(dist)}: the MGF is finite only below lam = {sup:.6g}, "
                             f"within the gap of 1e-9 kept from it, so no tilt is positive")
    return min(cap, _THETA_MAX)


def _cold_hint(dist: RateDistribution) -> Interval:
    """Tilt bracket of a search with no better guess: [0, min(1, cap / 2)]."""
    return Interval(0.0, min(1.0, 0.5 * _tilt_cap_exp(dist)))


def _beyond_cap(dist: RateDistribution, target: str, reach) -> DomainError:
    """The error of a tilt search for ``target`` with no root below the cap:
    beyond double precision at _THETA_MAX, or else at the MGF wall, where
    ``reach(cap)`` names what the search reaches."""
    cap = _tilt_cap_exp(dist)
    if cap == _THETA_MAX:
        return DomainError(f"{target} needs a tilt above {_THETA_MAX:g}, beyond double precision")
    return MgfDomainError(
        f"{target} is unreachable: tilts are confined to (0, {cap:.6g}] by the "
        f"MGF domain, which only reaches {reach(cap)}"
    )


def _check_rare(dist: RateDistribution, service: ServiceTime, a: float) -> None:
    """Check that the occupancy level a is finite and above the mean load."""
    if not math.isfinite(a):
        raise DomainError(f"occupancy level must be finite, got {a}")
    load = mean_load(dist, service)
    if not a > load:
        raise RarityError(f"occupancy level a={a} must exceed the mean load {load}")


def _level(theta: float, integrals: tuple[float, float, float]) -> float:
    """a(theta) = e^theta I1, from a rule's integrals (I0, I1, I2) at the tilt theta."""
    return math.exp(theta) * integrals[1]


def _sigma2(theta: float, level: float, curvature: float) -> float:
    """sigma^2 = da/dtheta = level + e^(2 theta) I2 at the tilt theta."""
    # a point-mass rate law has no curvature, also at tilts where e^(2 theta) overflows
    return level + (curvature * exp_or_inf(2.0 * theta) if curvature else 0.0)


def _solve_tilt(dist: RateDistribution, rule: _Rule, a: float,
                guess: float) -> tuple[float, tuple[float, float, float]]:
    """theta_star_queue under ``rule``, for a level a above the mean, returned
    with the rule's checked integrals at the tilt (see _Rule.checked).

    Every level solve stops on one residual, the level gap a(theta) - a with
    slope sigma^2, at |a(theta) - a| <= max(1e-12 min(a, 1), 1e-14 a): up to
    a = 100 within 1e-12 of a both absolutely and relative to a, so tiny rates
    stop as their scaled twins do, and above it 1e-14 relative, never below
    the rule's rounding of a(theta), about 8e-15 relative.  Up to
    _NEWTON_EVALS Newton steps from a ``guess`` of the tilt (NaN for none)
    come first; where one leaves (0, cap) or vanishes at the float resolution
    of theta, or none meets the stop, the tilt is searched from the cold
    bracket in [0, cap = _tilt_cap_exp(dist)]."""
    seen = {}  # the integrals at each tilt evaluated, by tilt; the root is one of them
    tol, cap = max(1e-12 * min(a, 1.0), 1e-14 * a), _tilt_cap_exp(dist)

    def g(theta: float) -> tuple[float, float]:
        integrals = seen[theta] = rule.integrals(dist, math.expm1(theta))
        level = _level(theta, integrals)
        return level - a, _sigma2(theta, level, integrals[2])

    theta = guess
    for _ in range(_NEWTON_EVALS):
        if not 0.0 < theta < cap:
            break
        value, slope = g(theta)
        if abs(value) <= tol:
            return theta, rule.checked(dist, math.expm1(theta), seen[theta])
        step = value / slope if slope > 0.0 else math.nan
        # a step lost below the float resolution of theta settles nothing more
        if theta - step == theta:
            break
        theta -= step
    try:
        theta = find_root_increasing(g, _cold_hint(dist), lo_limit=0.0, hi_limit=cap, tol=tol)
    except DomainError:
        raise _beyond_cap(dist, f"level a={a}",
                          lambda cap: f"mean level {a + g(cap)[0]:.6g}") from None
    if theta == 0.0:  # where the approximations are infinite
        raise RarityError(f"level a={a} lies within rounding of the mean level "
                          f"{_level(0.0, seen[0.0])!r}, at tilt 0")
    return theta, rule.checked(dist, math.expm1(theta), seen[theta])


def theta_star_queue(dist: RateDistribution, service: ServiceTime, a: float) -> float:
    """Tilt making the expected occupancy equal a.

    Solves int_0^1 CGF'(sf(x) (e^t - 1)) sf(x) e^t dx = a, which is strictly
    increasing in t with slope sigma^2 of queue_approx; requires a above
    the mean load and a tilt within the MGF domain.
    """
    _check_rare(dist, service, a)
    return _solve_tilt(dist, _rule(service), a, math.nan)[0]


@dataclass(frozen=True)
class QueueApprox:
    """Sharp occupancy-tail approximation at one (N, a)."""

    theta_star: float
    sigma2: float
    log_q_check: float
    log_Q_check: float

    @property
    def Q_check(self) -> float:
        return exp_or_inf(self.log_Q_check)


def _check_scale(N: float) -> None:
    """Check that the scale N of a sharp approximation is positive and finite."""
    if not (N > 0.0 and math.isfinite(N)):
        raise DomainError(f"N must be positive and finite, got {N}")


def _approx_from(
    N: float,
    theta: float,
    a: float,
    integrals: tuple[float, float, float],
    checked: bool,
) -> QueueApprox:
    """The sharp approximation at the level a from the integrals at its tilt
    theta, under any rule, for a finite count N*a."""
    if not math.isfinite(N * a):
        raise DomainError(f"the count N*a at N={N}, a={a} must be finite")
    sigma2 = _sigma2(theta, a, integrals[2])
    log_q = (
        -theta * N * a
        + N * integrals[0]
        - 0.5 * math.log(2.0 * math.pi * N)
        - 0.5 * math.log(sigma2)
    )
    if checked and not math.isfinite(log_q):
        raise DomainError(f"the sharp approximation at N={N}, a={a}: log q = {log_q:.6g} "
                          "lies beyond the float range")
    return QueueApprox(
        theta_star=theta,
        sigma2=sigma2,
        log_q_check=log_q,
        log_Q_check=log_q - math.log(-math.expm1(-theta)),
    )


def queue_approx(dist: RateDistribution, service: ServiceTime, N: float, a: float) -> QueueApprox:
    """Sharp approximation of the occupancy point and tail probabilities.

    Raises RarityError where the tail approximation exceeds 1, which happens
    at levels just above the mean load or at small N.
    """
    _check_scale(N)
    _check_rare(dist, service, a)
    theta, integrals = _solve_tilt(dist, _rule(service), a, math.nan)
    approx = _approx_from(N, theta, a, integrals, checked=True)
    if approx.log_Q_check > 0.0:
        raise RarityError(
            f"the sharp approximation at a={a}, N={N} gives log Q = "
            f"{approx.log_Q_check:.6g} > 0, so the level is not rare enough for it"
        )
    if not service.twice_differentiable_on_01:
        warnings.warn(
            f"{spec_label(service)}: the sharp occupancy formula assumes a twice "
            "differentiable complementary cdf; value computed anyway",
            HypothesisWarning,
            stacklevel=2,
        )
    return approx


def mc_Q(dist: RateDistribution, service: ServiceTime, N: int, a: float, runs: int,
         seed: int) -> EstimatorResult:
    """Crude Monte Carlo for the occupancy tail at level N*a: the share of
    runs whose occupancy reaches k = ceil(N a).  Tabled occupancy laws give
    the same results at every block size (sampling._occupancy_sampler)."""
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"N must be a positive integer, got {N}")
    k = ceil_count(N * a)
    # N + 1 per run for every law: the per-run cap then bounds N, and with it
    # the retention vector, whatever the rates
    return _run_blocks(seed, runs, N + 1,
                       lambda: _occupancy_sampler(dist, omega_vector(N, service), k))


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
    if math.isinf(m_inf):
        raise DomainError(f"the stationary mean N * mean rate * mean service = {N} * "
                          f"{dist.mean:.6g} * {service.mean:.6g} lies beyond the float range")
    var_over = N * dist.variance * service.sf_sq_integral_total()
    return LoadVariance(
        M1=N * mean_load(dist, service),
        M_inf=m_inf,
        var_total=var_over + m_inf,
        var_overdispersion=var_over,
        var_poisson=m_inf,
    )
