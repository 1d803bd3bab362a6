"""Reference values the tests compare the package against.

No entry point of the package needs these, so they live beside the tests.
"""

import decimal
import math

import numpy as np

from mixpois.numerics import Interval, find_root_increasing
from mixpois.rates import RateFunctionPoint


def poisson_log_pmf(mean: float, k: int) -> float:
    """log P(Pois(mean) = k) for mean > 0."""
    return k * math.log(mean) - mean - math.lgamma(k + 1.0)


def negbin_log_pmf(shape: float, q: float, v: int) -> float:
    """log P(C = v) for C negative binomial of real shape ``shape`` > 0 and
    weight 0 < q < 1, the Poisson count mixed over a gamma rate:
    log Gamma(shape + v) - log Gamma(shape) - log v! + shape log(1 - q) + v log q."""
    return (math.lgamma(shape + v) - math.lgamma(shape) - math.lgamma(v + 1.0)
            + shape * math.log1p(-q) + v * math.log(q))


def poisson_tail(mean: float, k: int) -> float:
    """P(Pois(mean) >= k) for mean > 0: the pmf summed upward from k in log
    space, until past the mode the terms fall 40 e-folds below the largest."""
    log_terms = [poisson_log_pmf(mean, k)]
    top, j = log_terms[0], k
    while j <= mean or log_terms[-1] > top - 40.0:
        j += 1
        log_terms.append(log_terms[-1] + math.log(mean / j))
        top = max(top, log_terms[-1])
    return math.exp(top) * math.fsum(math.exp(t - top) for t in log_terms)


def binomial_tails(n: int, p: float, x: int) -> tuple[float, float]:
    """(P(X <= x), P(X >= x)) for X ~ Bin(n, p), 0 < p < 1: the pmf summed
    from x away from it in log space, by the ratio of consecutive terms,
    until past the mode the terms fall 40 e-folds below the largest."""
    log_odds = math.log(p) - math.log1p(-p)
    log_x = (math.lgamma(n + 1.0) - math.lgamma(x + 1.0) - math.lgamma(n - x + 1.0)
             + x * math.log(p) + (n - x) * math.log1p(-p))
    mode = (n + 1) * p

    def tail(step: int) -> float:
        log_terms, j = [log_x], x
        top = log_x
        while 0 <= j + step <= n and ((j - mode) * step <= 0 or log_terms[-1] > top - 40.0):
            ratio = (n - j) / (j + 1) if step > 0 else j / (n - j + 1)
            log_terms.append(log_terms[-1] + math.log(ratio) + step * log_odds)
            top = max(top, log_terms[-1])
            j += step
        return math.exp(top) * math.fsum(math.exp(t - top) for t in log_terms)

    return tail(-1), tail(1)


def poisson_pmf_digits(mean: float, size: int) -> list[decimal.Decimal]:
    """P(Pois(mean) = v) for v = 0..size-1 to 50 significant digits, by the
    recurrence p_(v+1) = p_v mean / (v + 1) from e^-mean, in decimal
    arithmetic on the float mean's exact value."""
    with decimal.localcontext() as context:
        context.prec = 50
        mu = decimal.Decimal(mean)
        term, pmf = (-mu).exp(), []
        for v in range(size):
            pmf.append(term)
            term = term * mu / (v + 1)
        return pmf


def pooled_poisson_tail(lam: float, slots: int, N: float, k: int) -> float:
    """P(count >= k) where the count is Pois(N S / slots) given the pooled
    rate S ~ Pois(slots * lam): the Poisson tails mixed over S, which has no
    mass at S = 0 for k >= 1."""
    mean = slots * lam
    js = range(1, math.ceil(mean + 40.0 * math.sqrt(mean) + 40.0))
    return math.fsum(math.exp(poisson_log_pmf(mean, j)) * poisson_tail(N * j / slots, k)
                     for j in js)


def pooled_twopoint_tail(p: float, lam1: float, lam2: float, slots: int, N: float,
                         k: int) -> float:
    """P(count >= k) where the count is Pois(N S / slots) given the pooled
    rate S = slots * lam1 + (lam2 - lam1) * J over the J ~ Bin(slots, 1 - p)
    slots at lam2: the Poisson tails mixed over J."""
    return math.fsum(math.comb(slots, j) * p ** (slots - j) * (1.0 - p) ** j
                     * poisson_tail(N * (slots * lam1 + (lam2 - lam1) * j) / slots, k)
                     for j in range(slots + 1))


def numeric_rate_function(dist, a: float) -> RateFunctionPoint:
    """The rate function of a rate law at a mean a strictly inside its
    support, by solving CGF'(theta) = a: an independent check of the closed
    forms.  The search is limited to tilts in [-50, 50], which holds every
    tilt the tests ask for (|theta| < 5)."""
    sup = dist.mgf_domain_sup
    hi_limit = 50.0 if math.isinf(sup) else sup - 1e-12 * max(1.0, abs(sup))

    def g(t: float) -> tuple[float, float]:
        _, k1, k2 = dist.cgf(t)
        return float(k1) - a, float(k2)

    theta = find_root_increasing(g, Interval(-1.0, min(1.0, hi_limit)), -50.0, hi_limit,
                                 tol=1e-12)
    k0, _, k2 = dist.cgf(theta)
    return RateFunctionPoint(a=a, value=theta * a - float(k0), theta_star=theta,
                             second_deriv=float(k2))


def occupancy_pmf(lam: float, omegas) -> np.ndarray:
    """pmf of the occupancy sum_i Pois(omega_i X_i) with X_i i.i.d. Pois(lam).

    Each term has the Neyman type A law, the Poisson pmfs of mean omega_i x
    mixed over x ~ Pois(lam); the terms are convolved.  The counts run 40
    standard deviations past the mean, and the pmf must hold all but 1e-12
    of its mass there.  Slots of zero retention add a point mass at 0 and are
    left out.
    """
    omegas = np.asarray(omegas, dtype=float)
    omegas = omegas[omegas > 0.0]
    sd = math.sqrt(lam * float(np.sum(omegas + omegas**2)))
    size = math.ceil(lam * float(omegas.sum()) + 40.0 * sd + 40.0)
    x = np.arange(1, math.ceil(lam + 40.0 * math.sqrt(lam) + 40.0))
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, max(size, x.size + 1))))))
    p_x = np.exp(x * math.log(lam) - lam - log_factorial[x])
    y = np.arange(size)
    pmf = np.array([1.0])
    for omega in omegas:
        mean = omega * x[:, None]
        term = p_x @ np.exp(y * np.log(mean) - mean - log_factorial[y])
        term[0] += math.exp(-lam)  # x = 0: no arrivals in the slot
        pmf = np.convolve(pmf, term)[:size]
    assert abs(math.fsum(pmf) - 1.0) < 1e-12
    return pmf


def twopoint_occupancy_pmf(p: float, lam1: float, lam2: float, omegas) -> np.ndarray:
    """pmf of the occupancy sum_i Pois(omega_i X_i) with X_i i.i.d. two-point
    rates, lam1 with probability p and lam2 otherwise.

    Each term is the mixture p Pois(lam1 omega_i) + (1 - p) Pois(lam2 omega_i);
    the terms are convolved.  The counts run 40 standard deviations past the
    mean, and the pmf must hold all but 1e-12 of its mass there.  Slots of
    zero retention add a point mass at 0 and are left out.
    """
    omegas = np.asarray(omegas, dtype=float)
    omegas = omegas[omegas > 0.0]
    mean_rate = p * lam1 + (1.0 - p) * lam2
    rate_variance = p * (1.0 - p) * (lam2 - lam1) ** 2
    mean = mean_rate * float(omegas.sum())
    sd = math.sqrt(mean + rate_variance * float(np.sum(omegas**2)))
    size = math.ceil(mean + 40.0 * sd + 40.0)
    y = np.arange(size)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))
    pmf = np.array([1.0])
    for omega in omegas:
        low, high = lam1 * omega, lam2 * omega
        term = (p * np.exp(y * math.log(low) - low - log_factorial)
                + (1.0 - p) * np.exp(y * math.log(high) - high - log_factorial))
        pmf = np.convolve(pmf, term)[:size]
    assert abs(math.fsum(pmf) - 1.0) < 1e-12
    return pmf


def efficiency_ratios(estimate, N_grid) -> list[float]:
    """log E[w^2] over 2 log estimate for ``estimate(N)`` at each N.

    The second moment of an asymptotically efficient estimator decays at
    twice the rate of the probability, so the ratio approaches 1 from below;
    a crude indicator estimator stays at 1/2.
    """
    return [math.log(r.second_moment) / (2.0 * math.log(r.estimate)) for r in map(estimate, N_grid)]


def relative_ci(result) -> float:
    """95% confidence half-width over the estimate, infinite without hits."""
    return result.ci_halfwidth_95 / result.estimate if result.estimate > 0.0 else math.inf
