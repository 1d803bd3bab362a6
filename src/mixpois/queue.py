"""Infinite-server layer: service-time laws, slot retention probabilities,
sharp approximations of the occupancy tail, and crude simulation.

The simulation draws through the draw layer of ``sampling``: cache-sized
blocks of runs (_by_blocks) and alias tables of Poisson laws (_alias_sampler).

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
from .rates import (DeterministicRate, PoissonRate, RateDistribution, TwoPoint, parse_spec,
                    spec_label)
from .sampling import (EstimatorResult, _alias_sampler, _by_blocks, _count_mean, _poisson_laws,
                       _run_chunked)

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
    """Nodes of a count whose CGF is sum_j w_j CGF(tau c_j): the weights w_j,
    the retentions c_j = sf_j and their complements 1 - sf_j, as arrays, or as
    scalars for one node, with the rule ``check`` that checks its integrals:
    for a service law's rule, the rule of half the order on the same panels;
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


# The compound count Pois(X) of the balanced overflow regime: the occupancy of
# one node at full retention.  The rule is exact, so it has no check rule.
_UNIT_RULE = _Rule(1.0, 1.0, 0.0, None)


def _panel_edges(service: ServiceTime) -> list[float]:
    first = 1.0 / _UNIFORM_PANELS
    # the grading stops at the smallest normal float for tiny service means
    floor = max(_GRADING_FLOOR * service.mean, sys.float_info.min)
    depth = max(0, math.ceil(math.log2(first / floor)))
    uniform = [k * first for k in range(_UNIFORM_PANELS + 1)]
    graded = [first * 0.5**j for j in range(1, depth + 1)]
    return sorted({*uniform, *graded, *service.breakpoints_in_unit})


@functools.lru_cache(maxsize=32)
def _rule(service: ServiceTime) -> _Rule:
    """The composite Gauss-Legendre rule of a service law on the unit interval,
    with its complementary cdf at the nodes and its half-order check rule,
    built once."""
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


def _solve_tilt(dist: RateDistribution, rule: _Rule, a: float,
                hint: Interval) -> tuple[float, tuple[float, float, float]]:
    """theta_star_queue under ``rule``, for a level a above the mean, searched
    from the bracket ``hint`` in [0, _tilt_cap_exp(dist)] and returned with
    the rule's checked integrals at the tilt (see _Rule.checked)."""
    seen = {}  # the integrals at each tilt evaluated, by tilt; the root is one of them

    def g(theta: float) -> tuple[float, float]:
        _, slope, curvature = seen[theta] = rule.integrals(dist, math.expm1(theta))
        level = math.exp(theta) * slope
        return level - a, level + curvature * exp_or_inf(2.0 * theta)

    cap = _tilt_cap_exp(dist)
    try:
        theta = find_root_increasing(g, hint, tol=1e-12, lo_limit=0.0, hi_limit=cap)
    except DomainError:
        raise _beyond_cap(dist, f"level a={a}",
                          lambda cap: f"mean level {g(cap)[0] + a:.6g}") from None
    return theta, rule.checked(dist, math.expm1(theta), seen[theta])


def theta_star_queue(dist: RateDistribution, service: ServiceTime, a: float) -> float:
    """Tilt making the expected occupancy equal a.

    Solves int_0^1 CGF'(sf(x) (e^t - 1)) sf(x) e^t dx = a, which is strictly
    increasing in t with slope sigma^2 of queue_approx; requires a above
    the mean load and a tilt within the MGF domain.
    """
    _check_rare(dist, service, a)
    return _solve_tilt(dist, _rule(service), a, _cold_hint(dist))[0]


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
    integral_cgf, _, curvature = integrals
    # a point-mass rate law has no curvature, also at tilts where e^(2 theta) overflows
    sigma2 = a + (curvature * exp_or_inf(2.0 * theta) if curvature else 0.0)
    log_q = (
        -theta * N * a
        + N * integral_cgf
        - 0.5 * math.log(2.0 * math.pi * N)
        - 0.5 * math.log(sigma2)
    )
    if checked and not math.isfinite(log_q):
        raise ConvergenceError(f"the sharp approximation at N={N}, a={a} overflows")
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
    theta, integrals = _solve_tilt(dist, _rule(service), a, _cold_hint(dist))
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
    the mean count of the units that add more, since omega_i <= 1.
    """
    term = np.exp(-omegas)
    means = [lam * np.add.reduce(term)]
    bound = lam  # lam / (y + 1)!, against 2^-53 / N
    while len(means) < 2 or bound >= 2.0**-53 / omegas.size:
        term = term * omegas / len(means)
        means.append(lam * np.add.reduce(term))
        bound /= len(means)
    return np.array(means)


def _marked_occupancy(lam: float, omegas: np.ndarray):
    """Sampler ``draw(rng, m) -> m occupancies`` for Poisson slot rates.

    Each run draws the counts of units that add y = 1..y0 occupants, and one
    pooled count of those that add more, whose marks follow from the rest of
    the table; y0 is the smallest mark beyond which fewer than one unit is
    expected per run.  Each count is its own Poisson draw and each pooled
    mark its own draw from the mark law, one raw word each, from alias tables
    built once per call (sampling._alias_sampler).  A count whose table would
    pass 2^12 entries is drawn by numpy's Poisson sampler instead.
    """
    means = _mark_means(lam, omegas)
    beyond = np.append(np.cumsum(means[:0:-1])[::-1], 0.0)  # [y]: mean units marked above y
    y0 = 1 + int(np.argmax(beyond[1:] < 1.0))
    count_means = _count_mean(np.append(means[1:y0 + 1], beyond[y0]))
    marks = np.append(np.arange(1, y0 + 1), 0)
    laws = _poisson_laws(count_means)
    tabled = np.array([law is not None for law in laws])
    rows = np.arange(np.count_nonzero(tabled))  # the pooled count, of mean below 1, comes last
    big_means, big_marks, marks = count_means[~tabled], marks[~tabled], marks[tabled]
    mark_law = means[y0 + 1:]
    draw = _alias_sampler([law for law in laws if law is not None]
                          + [mark_law if mark_law.any() else np.ones(1)])

    def block(rng: np.random.Generator, n: int) -> np.ndarray:
        counts = draw(rng.bit_generator.random_raw((n, rows.size)), rows)
        occupancy = counts @ marks
        if big_means.size:
            occupancy = occupancy + rng.poisson(big_means, size=(n, big_means.size)) @ big_marks
        pooled = counts[:, -1]
        if total := int(pooled.sum()):
            tail = draw(rng.bit_generator.random_raw(total), rows.size) + (y0 + 1)
            occupancy = occupancy + np.bincount(np.repeat(np.arange(n), pooled), tail, n)
        return occupancy

    return lambda rng, m: _by_blocks(rng, m, y0 + 2, block)


_ALL_LANES = np.uint64(2**64 - 1)


def _bernoulli_words(q: float):
    """Sampler ``draw(rng, n) -> n uint64 words`` whose 64 bit lanes are
    i.i.d. Bernoulli(q), for 0 < q <= 1.

    A lane is the indicator of U < q for a uniform U, decided at the first
    bit of U that differs from the binary expansion b_1 ... b_L of q, exact
    from ``q.as_integer_ratio()``; a lane that matches all L bits has U >= q
    (Devroye, Non-Uniform Random Variate Generation, 1986, ch. XV), so a lane
    is set with probability exactly q.  Each bit position takes one raw word
    of the stream per lane word that still holds undecided lanes, shared by
    its 64 lanes, in word order.  The loop ends once no lane is undecided: at
    q = 1/4, L = 2 and it draws both words for every lane word (all 64 lanes
    of a word are decided by the first bit with probability 2^-64), while at
    a q with a long expansion its length, about 2 + log2 of the lane count,
    depends on n, and it draws about 7.3 words per lane word.
    """
    numerator, denominator = q.as_integer_ratio()
    length = denominator.bit_length() - 1  # q = numerator / 2^L
    bits = [numerator >> (length - j) & 1 for j in range(1, length + 1)]

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        if q == 1.0:
            return np.full(n, _ALL_LANES)
        lanes = np.zeros(n, dtype=np.uint64)
        # the words that hold undecided lanes, as a slice while that is all of them
        words, undecided = slice(None), np.full(n, _ALL_LANES)
        for bit in bits:
            r = rng.bit_generator.random_raw(undecided.size)
            if bit:  # U < q where U has a 0 here
                lanes[words] |= undecided & ~r
                undecided &= r
            else:  # U > q where U has a 1 here
                undecided &= ~r
            if not undecided.all():
                kept = np.flatnonzero(undecided)
                words = kept if isinstance(words, slice) else words[kept]
                undecided = undecided[kept]
                if not kept.size:
                    break
        return lanes

    return draw


def _rate_sum(dist: RateDistribution, omegas: np.ndarray):
    """Sampler ``draw(rng, m) -> m rate sums`` Lambda = sum_i omega_i X_i
    over the N slot rates X_i, for rates other than Poisson.

    Deterministic rates give the constant lam sum_i omega_i, with no draw.
    Two-point rates give lam1 sum_i omega_i + (lam2 - lam1) sum_{i in B}
    omega_i over the set B of slots at lam2, drawn as the lanes of
    ceil(N/64) Bernoulli(1 - p) words per run (_bernoulli_words) and summed
    by one table of partial sums per byte of lanes, 256 doubles per 8 slots
    (26 KB at N = 100, 256 MB at N = 10^6).  The lanes of a block of runs
    are drawn bit position by bit position, so the results depend on the
    block size sampling._BLOCK_SCALARS.  Gamma rates draw the N slot rates
    of each run, so the results do not depend on it.
    """
    N = omegas.size
    if isinstance(dist, DeterministicRate):
        total = np.add.reduce(dist.lam * omegas)
        return lambda rng, m: np.full(m, total)
    if not isinstance(dist, TwoPoint):  # gamma rates
        def gamma_block(rng: np.random.Generator, n: int) -> np.ndarray:
            return (rng.gamma(dist.beta, 1.0 / dist.lam, size=(n, N)) * omegas).sum(axis=1)

        return lambda rng, m: _by_blocks(rng, m, N, gamma_block)
    words, byte_count = -(-N // 64), -(-N // 8)
    padded = np.zeros(8 * byte_count)
    padded[:N] = omegas
    # [b, v]: the retention of the slots 8b + t summed over the set bits t of
    # v, built by doubling: the columns v in [2^t, 2^(t+1)) add slot 8b + t
    table = np.zeros((byte_count, 256))
    for t in range(8):
        np.add(table[:, :2**t], padded[t::8, None], out=table[:, 2**t:2**(t + 1)])
    table = table.ravel()
    byte = np.arange(byte_count)
    word_of, shift, offset = byte // 8, (8 * (byte % 8)).astype(np.uint64), 256 * byte
    low, spread = dist.lam1 * np.add.reduce(omegas), dist.lam2 - dist.lam1
    lanes = _bernoulli_words(1.0 - dist.p)

    def block(rng: np.random.Generator, n: int) -> np.ndarray:
        bytes_ = (lanes(rng, n * words).reshape(n, words)[:, word_of] >> shift) & np.uint64(255)
        return low + spread * np.add.reduce(table[bytes_.astype(np.intp) + offset], axis=1)

    return lambda rng, m: _by_blocks(rng, m, byte_count, block)


def mc_Q(dist: RateDistribution, service: ServiceTime, N: int, a: float, runs: int,
         seed: int) -> EstimatorResult:
    """Crude Monte Carlo for the occupancy tail at level N*a.

    A run hits when its occupancy reaches k = ceil(N a).  Poisson slot rates
    draw the occupancy itself, from the counts of units marked by the
    occupants they add, each count one raw word read through an alias table
    of its Poisson law (_marked_occupancy).  Other rates draw the rate sum
    Lambda = sum_i omega_i X_i over the N slot rates X_i (_rate_sum), and the
    hit of the Pois(Lambda) occupancy as G <= Lambda with G ~ Gamma(k, 1),
    the k-th epoch of a unit-rate Poisson process, since P(Pois(Lambda) >= k)
    = P(G <= Lambda).
    """
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"N must be a positive integer, got {N}")
    k = ceil_count(N * a)
    marked = isinstance(dist, PoissonRate)
    draw = None

    def weights(rng: np.random.Generator, m: int) -> np.ndarray:
        nonlocal draw
        if draw is None:  # built on the first chunk, after the budget check
            omegas = omega_vector(N, service)
            draw = _marked_occupancy(dist.lam, omegas) if marked else _rate_sum(dist, omegas)
        if marked:
            return (draw(rng, m) >= k).astype(np.float64)
        lam = draw(rng, m)
        return (rng.standard_gamma(k, size=m) <= lam).astype(np.float64)

    # N + 1 per run for every law: the per-run cap then bounds N, and with it
    # the retention vector, whatever the rates
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
