"""Infinite-server layer: service-time laws, slot retention probabilities,
sharp approximations of the occupancy tail, and crude simulation.

The simulation draws through the draw layer of ``sampling``: the estimator
driver, which draws, scores and sums cache-sized blocks of runs
(_run_blocks), and alias tables of discrete laws (_tabled).

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
from .rates import GammaRate, PoissonRate, RateDistribution, TwoPoint, parse_spec, spec_label
from .sampling import (_BLOCK_SCALARS, _TABLE_TAIL, EstimatorResult, _count_mean, _negbin_law,
                       _poisson_laws, _poisson_ratios, _poisson_span, _run_blocks, _tabled)

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
# rule of half the order on the same panels.  Deterministic service takes one
# exact node instead (see _rule).
_UNIFORM_PANELS = 16
_ORDER = 20
_GRADING_FLOOR = 1e-12
_REL_TOL = 1e-10
# largest tilt whose factors e^theta and e^(2 theta) stay finite
_THETA_MAX = 350.0
# level evaluations a tilt gets from a guess before the bracketed search takes over
_NEWTON_EVALS = 4
# mc_Q draws from the table of the occupancy law up to 2^_OCCUPANCY_BITS
# values: at that size one alias table's two int64 arrays take 1 MiB
_OCCUPANCY_BITS = 16


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
    scalars for one node, with the rule ``check`` that checks its integrals:
    for a composite rule, the rule of half the order on the same panels;
    None for an exact rule and for a check rule itself.

    The weights come pre-multiplied by 1, sf and sf^2, the factors of the
    three integrands, so each integral is one product and one pairwise sum
    (np.add.reduce, no BLAS: the rounding never depends on the BLAS build).
    """

    def __init__(self, weights, sf, sf_complement, check: _Rule | None):
        self.sf = sf
        self.sf_complement = sf_complement
        self.weighted = (weights, weights * sf, weights * sf * sf)
        self.check = check

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
        check rule's to a relative _REL_TOL; ConvergenceError otherwise."""
        if self.check is not None:
            for value, estimate in zip(values, self.check.integrals(dist, tau)):
                if not abs(value - estimate) <= _REL_TOL * abs(value):
                    raise ConvergenceError(
                        f"occupancy quadrature for {dist} at tau={tau:.12g}: rules of order "
                        f"{_ORDER} and {_ORDER // 2} give {value!r} and {estimate!r}"
                    )
        return values


class _UnitRule(_Rule):
    """One node at full retention, of weight w: its integrals are the CGF
    triple times w.  At w = 1 it is the compound count Pois(X) of the
    balanced overflow regime.  The rule is exact, so it has no check rule."""

    def integrals(self, dist: RateDistribution, tau: float) -> tuple[float, float, float]:
        w0, w1, w2 = self.weighted
        with np.errstate(over="ignore", invalid="ignore"):
            k0, k1, k2 = dist.cgf(tau, 1.0, 0.0)
            return float(w0 * k0), float(w1 * k1), float(w2 * k2)


_UNIT_RULE = _UnitRule(1.0, 1.0, 0.0, None)


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
    composite Gauss-Legendre rule, with its half-order check rule."""
    if isinstance(service, DetService):
        return _UnitRule(min(service.mean, 1.0), 1.0, 0.0, None)
    edges = _panel_edges(service)

    def rule(order: int, check: _Rule | None) -> _Rule:
        x, w = gauss_legendre(edges, order)
        return _Rule(w, service.sf(x), service.sf_complement(x), check)

    return rule(_ORDER, rule(_ORDER // 2, None))


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


def _mark_means(lam: float, omegas: np.ndarray) -> np.ndarray:
    """Mean counts mu_y, y = 0..Y, of the slot-rate units that add y occupants.

    With X_i ~ Pois(lam) units in slot i, each adding Pois(omega_i) occupants,
    the counts of units by mark y are independent Poisson counts of means
    mu_y = lam sum_i e^-omega_i omega_i^y / y! (the marking theorem).  The
    table ends at the first Y >= 1 with N lam / (Y + 1)! < 2^-53, which bounds
    the mean count of the units that add more, since omega_i <= 1.  The terms
    e^-omega_i omega_i^y / y! are one running product over the marks.
    """
    Y, bound = 1, lam / 2.0  # lam / (Y + 1)!, against 2^-53 / N
    while bound >= 2.0**-53 / omegas.size:
        Y += 1
        bound /= Y + 1
    factors = np.empty((Y + 1, omegas.size))
    factors[0] = np.exp(-omegas)
    factors[1:] = omegas / np.arange(1, Y + 1)[:, None]
    return lam * np.add.reduce(np.multiply.accumulate(factors, axis=0), axis=1)


def _stretched(law: np.ndarray, mark: int) -> np.ndarray:
    """``law``, the pmf of a count C, as the pmf of mark * C."""
    if mark == 1:
        return law
    out = np.zeros(mark * (law.size - 1) + 1)
    out[::mark] = law
    return out


def _cut(laws: np.ndarray) -> np.ndarray:
    """``laws``, rows of unnormalised pmfs of the values 0, 1, ..., cut past
    the last value at which the upper tail of some row still holds
    _TABLE_TAIL of its total."""
    tail = np.cumsum(laws[:, ::-1], axis=1)[:, ::-1]
    return laws[:, :np.max(np.count_nonzero(tail >= _TABLE_TAIL * tail[:, :1], axis=1))]


def _pair_sums(laws: np.ndarray) -> np.ndarray:
    """The convolutions of the rows 2j and 2j + 1 of ``laws``, pmfs of width
    w, as rows of width 2w - 1, after a row of a point mass at 0 is added to
    an odd count.  Each entry is a direct sum over a sliding window (einsum,
    no BLAS): an FFT's rounding, about 1e-16 of the peak, would swamp the
    entries of the tail."""
    if laws.shape[0] % 2:
        laws = np.vstack([laws, np.eye(1, laws.shape[1])])
    w = laws.shape[1]
    padded = np.zeros((laws.shape[0] // 2, 3 * w - 2))
    padded[:, w - 1:2 * w - 1] = laws[1::2]
    windows = np.lib.stride_tricks.sliding_window_view(padded, w, axis=1)
    return np.einsum("ivu,iu->iv", windows, np.ascontiguousarray(laws[0::2, ::-1]))


def _convolved(params: np.ndarray, width, slot_laws) -> np.ndarray:
    """The convolution of the slot laws, on the values 0, 1, ..., of the
    slots of parameters ``params``, widest first: ``slot_laws(batch)`` gives
    the pmfs of a batch of slots as the rows of a matrix, ``width(param)``
    values a slot at the batch's first parameter.

    Each batch holds at most sampling._BLOCK_SCALARS values, or one slot: so
    no matrix grows with N, and a few wide slots do not widen the many
    narrow ones.  A batch's slot laws are convolved pairwise, level by level
    (_pair_sums), and the batch sums in turn; every sum is cut where its
    upper tail falls below _TABLE_TAIL (_cut), so each value keeps its share
    within far less than the 2^-50 of the alias table.
    """
    occupancy, start = np.ones(1), 0
    while start < params.size:
        batch = params[start:start + max(1, int(_BLOCK_SCALARS // width(params[start])))]
        start += batch.size
        laws = _cut(slot_laws(batch))
        while laws.shape[0] > 1:
            laws = _cut(_pair_sums(laws))
        occupancy = _cut(np.convolve(occupancy, laws[0])[None])[0]
    return occupancy


def _twopoint_occupancy(dist: TwoPoint, omegas: np.ndarray) -> np.ndarray:
    """The occupancy pmf for two-point slot rates X_i over the retentions
    ``omegas``, positive and largest first: the convolution (_convolved) of
    the slot laws p Pois(lam1 omega_i) + (1 - p) Pois(lam2 omega_i), each
    batch's Poisson pmfs a matrix as wide as the span of its first slot at
    lam2 (sampling._poisson_ratios, sampling._poisson_span)."""

    def slot_laws(slots: np.ndarray) -> np.ndarray:
        ratio = _poisson_ratios(np.concatenate([dist.lam1 * slots, dist.lam2 * slots]))
        pmfs = ratio / np.add.reduce(ratio, axis=1)[:, None]
        return dist.p * pmfs[:slots.size] + (1.0 - dist.p) * pmfs[slots.size:]

    return _convolved(omegas, lambda omega: 2 * _poisson_span(dist.lam2 * omega), slot_laws)


def _gamma_occupancy(dist: GammaRate, q: np.ndarray) -> np.ndarray:
    """The occupancy pmf for gamma slot rates: the convolution (_convolved)
    of the slot counts, each negative binomial of shape beta and weight
    q_i = omega_i / (lam + omega_i) (sampling._negbin_law), for the weights
    ``q``, positive and largest first, whose laws are all tabled."""

    def slot_laws(batch: np.ndarray) -> np.ndarray:
        laws = [_negbin_law(dist.beta, q_i) for q_i in batch]
        rows = np.zeros((batch.size, max(law.size for law in laws)))
        for row, law in zip(rows, laws):
            row[:law.size] = law / np.add.reduce(law)
        return rows

    return _convolved(q, lambda q_i: _negbin_law(dist.beta, q_i).size, slot_laws)


def _occupancy_law(dist: RateDistribution, omegas: np.ndarray) -> np.ndarray | None:
    """The pmf of the occupancy sum_i Pois(omega_i X_i) over the slot rates
    X_i, unnormalised and cut where its upper tail falls below _TABLE_TAIL,
    on the values 0, 1, ...; or None where no table is built.

    The table is declined before any convolution where the occupancy's mean
    m = E[X] sum omega_i and variance s^2 = m + Var(X) sum omega_i^2 put
    m + 12 s + 32 past 2^_OCCUPANCY_BITS values, or where a slot's own law
    has no table (sampling._poisson_laws, sampling._negbin_law), and after
    it where the cut law is wider than that.
      - Poisson rates: the occupancy is sum_y y C_y over the independent
        Poisson counts C_y of the units that add y occupants (_mark_means),
        the convolution of their laws, each stretched by its mark.
      - Two-point rates: the convolution of the slot laws
        (_twopoint_occupancy).
      - Gamma rates: the convolution of the negative binomial slot counts
        (_gamma_occupancy).
      - Deterministic rates: one Poisson law of mean lam sum omega_i.
    Every convolution is direct: an FFT's rounding, about 1e-16 of the peak,
    would swamp the entries of the tail (Jongbloed and Koole, Appl. Stoch.
    Models Bus. Ind. 17 (2001) 307-318, build the same laws slot by slot).
    """
    total = math.fsum(omegas)
    mean = dist.mean * total
    variance = mean + dist.variance * math.fsum(omegas * omegas)
    if not mean + 12.0 * math.sqrt(variance) + 32.0 <= 2**_OCCUPANCY_BITS:
        return None
    positive = np.sort(omegas[omegas > 0.0])[::-1]  # the slots that add occupants, widest first
    if isinstance(dist, PoissonRate):
        laws = _poisson_laws(_mark_means(dist.lam, omegas)[1:])
        if any(law is None for law in laws):
            return None
        law = np.ones(1)
        for y, count in enumerate(laws, start=1):
            law = _cut(np.convolve(law, _stretched(count, y))[None])[0]
    elif isinstance(dist, TwoPoint):
        if positive.size and _poisson_laws(np.array([dist.lam2 * positive[0]]))[0] is None:
            return None
        law = _twopoint_occupancy(dist, positive)
    elif isinstance(dist, GammaRate):
        q = positive / (dist.lam + positive)
        q = q[q > 0.0]
        if q.size and _negbin_law(dist.beta, q[0]) is None:
            return None
        law = _gamma_occupancy(dist, q)
    else:  # deterministic rates
        law = _poisson_laws(np.array([dist.lam * total]))[0]
    return law if law is not None and law.size <= 2**_OCCUPANCY_BITS else None


def _slot_rates(dist: RateDistribution):
    """Sampler ``draw(rng, shape) -> slot rates`` of ``dist`` for rates other
    than Poisson: two-point rates lam1 where a uniform falls below p and lam2
    elsewhere, gamma rates numpy's gamma draws, deterministic rates lam."""
    if isinstance(dist, TwoPoint):
        return lambda rng, shape: np.where(rng.random(shape) < dist.p, dist.lam1, dist.lam2)
    if isinstance(dist, GammaRate):
        return lambda rng, shape: rng.gamma(dist.beta, 1.0 / dist.lam, size=shape)
    return lambda rng, shape: np.full(shape, dist.lam)


def mc_Q(dist: RateDistribution, service: ServiceTime, N: int, a: float, runs: int,
         seed: int) -> EstimatorResult:
    """Crude Monte Carlo for the occupancy tail at level N*a.

    A run hits when its occupancy reaches k = ceil(N a).  Each run draws its
    occupancy as one raw word read through the alias table of its law, built
    once per call (_occupancy_law, sampling._tabled), so the results do not
    depend on the block size.  Where that law has no table, Poisson slot
    rates draw the occupancy as sum_y y C_y over the counts C_y of the units
    of mark y (_mark_means) with numpy's Poisson sampler, and other rates
    draw the N slot rates X_i of a run (_slot_rates), their sum
    Lambda = sum_i omega_i X_i, and the hit of the Pois(Lambda) occupancy as
    G <= Lambda with G ~ Gamma(k, 1), the k-th epoch of a unit-rate Poisson
    process, since P(Pois(Lambda) >= k) = P(G <= Lambda); each block of runs
    draws its rate sums, then its epochs.
    """
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"N must be a positive integer, got {N}")
    k = ceil_count(N * a)

    def sampler():  # built after the budget check
        omegas = omega_vector(N, service)
        if (law := _occupancy_law(dist, omegas)) is not None:
            occupancy = _tabled(law)
            return 1, lambda rng, n: occupancy(rng, n) >= k
        if isinstance(dist, PoissonRate):
            means = _count_mean(_mark_means(dist.lam, omegas)[1:])
            marks = np.arange(1, means.size + 1)
            return means.size, lambda rng, n: rng.poisson(means, size=(n, means.size)) @ marks >= k
        rates = _slot_rates(dist)

        def block(rng: np.random.Generator, n: int) -> np.ndarray:
            rate_sums = np.add.reduce(rates(rng, (n, N)) * omegas, axis=1)
            return rate_sums >= rng.standard_gamma(k, size=n)

        return N + 1, block

    # N + 1 per run for every law: the per-run cap then bounds N, and with it
    # the retention vector, whatever the rates
    return _run_blocks(seed, runs, N + 1, sampler)


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
