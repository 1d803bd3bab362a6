"""Exact and series-refined evaluation when the pooled rate is gamma.

If the per-slot rates are Gamma(beta, lam), their pooled sum over N^alpha
slots is Gamma(N^alpha * beta, lam) and the mixed Poisson count is negative
binomial, which gives closed-form point and tail probabilities for checking
everything else.  The refined asymptotic series (valid across all alpha > 0,
including the band where the simple two-term formulas break down) are
implemented for the exponential slot case beta = 1, exactly as derived.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, RegimeError, TruncationBoundaryWarning
from .numerics import exp_or_inf, log_gamma
from .poisson_ldp import ceil_count, exact_count
from .tail_asymptotics import AsymptoticValue

__all__ = [
    "GammaCase",
    "SeriesCoefficients",
    "log_p_exact",
    "p_exact",
    "log_P_exact",
    "P_exact",
    "fast_series_coefficients",
    "slow_series_coefficients",
    "p_asym_fast",
    "p_asym_slow",
    "p_asym_intermediate",
]

_BOUNDARY_TOL = 1e-9
# the tail sum stops once its remainder bound is below this fraction of it
_TAIL_REL_TOL = 1e-14
_MAX_TAIL_TERMS = 50_000_000  # counts the tail sum may test before giving up
_FIRST_CHUNK, _LAST_CHUNK = 64, 2**16  # counts per numpy chunk of the tail sum
_MAX_TERMS = 10_000  # correction terms a series may take; alpha within 1e-4 of 1 needs more
_MAX_RISING_TERMS = 1_000_000  # largest count whose log rising factorial is summed termwise


@dataclass(frozen=True)
class GammaCase:
    """One evaluation instance: slot shape beta, rate lam, exponent alpha,
    target level a and scale N.  N^alpha*beta is the pooled gamma shape and
    need not be an integer; N*a must be a nonnegative integer for point
    probabilities, and the tail rounds it up.  Both must be finite."""

    beta: float
    lam: float
    alpha: float
    a: float
    N: float

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 and self.lam > 0.0):
            raise DomainError("beta and lam must be positive")
        if not self.alpha > 0.0:
            raise DomainError("alpha must be positive")
        if not self.a >= 0.0:
            raise DomainError("a must be nonnegative")
        if not self.N > 0.0:
            raise DomainError("N must be positive")
        if not (math.isfinite(self.shape) and math.isfinite(self.N * self.a)):
            raise DomainError(
                f"the pooled shape N^alpha*beta and the count N*a must be finite, "
                f"got alpha={self.alpha}, N={self.N}, beta={self.beta}, a={self.a}"
            )

    @property
    def shape(self) -> float:
        """Pooled gamma shape N^alpha * beta."""
        return exp_or_inf(self.alpha * math.log(self.N)) * self.beta

    @property
    def count(self) -> int:
        return exact_count(self.N * self.a)

    def _log_q(self) -> tuple[float, float]:
        """(log q, log(1-q)) for the success odds q = N^(1-a)/(lam + N^(1-a)),
        with log(1-q) = -log1p(N^(1-a)/lam) taken without overflow."""
        x = (1.0 - self.alpha) * math.log(self.N) - math.log(self.lam)
        log_1mq = -float(np.logaddexp(0.0, x))
        return x + log_1mq, log_1mq


@dataclass(frozen=True)
class SeriesCoefficients:
    """Truncated correction coefficients of a refined asymptotic series."""

    order: int
    values: tuple[float, ...]


def _log_pmf(case: GammaCase, k: int) -> float:
    """log of the negative binomial pmf at count k (pooled shape may be real).

    Where k <= r the difference log Gamma(k + r) - log Gamma(r) would cancel
    and lose a few ulps of r log r, so up to _MAX_RISING_TERMS counts it is
    summed as k log r + sum_{j<k} log1p(j/r), and above that taken from
    Stirling's series as k log r + (r + k - 1/2) log1p(k/r) - k
    + (1/(r + k) - 1/r)/12, whose next term is below 3e-21 there.
    """
    r = case.shape
    log_q, log_1mq = case._log_q()
    if k <= min(r, _MAX_RISING_TERMS):
        log_rising = k * math.log(r) + float(np.log1p(np.arange(k) / r).sum())
    elif k <= r:
        log_rising = (k * math.log(r) + (r + k - 0.5) * math.log1p(k / r) - k
                      + (1.0 / (r + k) - 1.0 / r) / 12.0)
    else:
        log_rising = log_gamma(k + r) - log_gamma(r)
    value = log_rising - log_gamma(k + 1.0) + k * log_q + r * log_1mq
    if not math.isfinite(value):
        raise ConvergenceError(f"the negative binomial log-pmf at k={k:.6g} is {value} for {case}")
    return value


def log_p_exact(case: GammaCase) -> float:
    """log of the exact point probability at count N*a."""
    return _log_pmf(case, case.count)


def p_exact(case: GammaCase) -> float:
    """Exact point probability P(count = N*a)."""
    return math.exp(log_p_exact(case))


def log_P_exact(case: GammaCase) -> float:
    """log of the exact tail P(count >= N*a).

    Below the mean count the pmf is summed downward from N*a - 1, and while
    that sum is below 1/2 the tail is log1p of minus it: an upward sum over
    the body of the law would round log P off zero by far more than the
    short sum below the count.  Otherwise the tail is summed upward from N*a.
    A fractional N*a is rounded up, since the event is {count >= N*a}.
    """
    k0 = ceil_count(case.N * case.a)
    if k0 == 0:
        return 0.0
    if k0 < case.N * case.beta / case.lam:
        log_below = _log_pmf_sum(case, k0 - 1, -1)
        if log_below < -math.log(2.0):
            return math.log1p(-math.exp(log_below))
    return _log_pmf_sum(case, k0, 1)


def _log_pmf_sum(case: GammaCase, k0: int, step: int) -> float:
    """log of the pmf summed from count k0 upward (step 1) or down to 0
    (step -1), in log space.

    Terms are accumulated in numpy chunks of 64 counts doubling to 2^16;
    once the running term ratio bounds every later one below 1, the rest of
    the sum is geometrically dominated, and the partial sum is returned at
    the first count where that bound drops below _TAIL_REL_TOL of it.
    """
    r = case.shape
    log_q, _ = case._log_q()
    q = math.exp(log_q)
    log_tol = math.log(_TAIL_REL_TOL)

    log_term = _log_pmf(case, k0)
    log_sum = log_term
    k = k0
    size = _FIRST_CHUNK
    while abs(k - k0) < _MAX_TAIL_TERMS:
        size = min(size, _MAX_TAIL_TERMS - abs(k - k0))
        if step > 0:
            ks = np.arange(k, k + size + 1, dtype=float)  # tests ks[:-1], ends at ks[-1]
            log_ratios = log_q + np.log((ks[1:] - 1.0 + r) / ks[1:])
            # term ratios approach q monotonically
            ratio_sup = np.maximum(q * (ks[:-1] + r) / (ks[:-1] + 1.0), q)
        else:
            size = min(size, k)
            ks = np.arange(k, k - size - 1, -1, dtype=float)
            log_ratios = np.log(ks[:-1] / (ks[1:] + r)) - log_q
            # the ratio at count 1 is the largest below this count when r < 1
            ratio_sup = np.maximum(ks[:-1] / ((ks[1:] + r) * q), 1.0 / (r * q))
        terms = np.cumsum(np.concatenate(([log_term], log_ratios)))
        sums = np.logaddexp.accumulate(np.concatenate(([log_sum], terms[1:])))
        live = np.flatnonzero(ratio_sup < 1.0)
        log_bound = terms[live] + np.log(ratio_sup[live]) - np.log1p(-ratio_sup[live])
        stops = live[log_bound < sums[live] + log_tol]
        if stops.size:
            return float(sums[stops[0]])
        if ks[-1] == 0.0:
            return float(sums[-1])
        if terms[-1] == log_term:
            raise ConvergenceError(
                f"tail terms stopped changing at count {k + step * size:.6g}: their log "
                f"increments are below its rounding, for {case}")
        k += step * size
        log_term, log_sum = float(terms[-1]), float(sums[-1])
        size = min(2 * size, _LAST_CHUNK)
    raise ConvergenceError(f"tail summation did not terminate for {case}")


def P_exact(case: GammaCase) -> float:
    """Exact tail probability P(count >= N*a)."""
    return math.exp(log_P_exact(case))


def _truncation_index(x: float) -> int:
    """floor(x), warning when x sits numerically on an integer boundary."""
    if not x <= _MAX_TERMS:
        raise ConvergenceError(f"the series needs {x:.6g} correction terms, more than {_MAX_TERMS}")
    if abs(x - round(x)) < _BOUNDARY_TOL:
        warnings.warn(
            f"series truncation index {x} lies on a jump boundary; "
            "the truncation uses its floor",
            TruncationBoundaryWarning,
            stacklevel=3,
        )
    return int(math.floor(x))


def fast_series_coefficients(case: GammaCase) -> SeriesCoefficients:
    """Correction coefficients for alpha > 1 (exponential slots).

    values[0] is the leading exponential constant
    -a log(lam a) + a - 1/lam; values[k] multiplies N^{(1-alpha)k + 1}.
    """
    lam, a = case.lam, case.a
    order = _truncation_index(1.0 / (case.alpha - 1.0))
    values = [-a * math.log(lam * a) + a - 1.0 / lam]
    try:
        for k in range(1, order + 1):
            values.append(
                (-1.0) ** k
                * (
                    lam ** (-k) * (a / k - (1.0 / lam) / (k + 1.0))
                    - a ** (k + 1) * (1.0 / k - 1.0 / (k + 1.0))
                )
            )
    except OverflowError:
        raise ConvergenceError(f"fast series coefficient {k} overflows for {case}") from None
    return SeriesCoefficients(order=order, values=tuple(values))


def slow_series_coefficients(case: GammaCase) -> SeriesCoefficients:
    """Correction coefficients for alpha < 1 (exponential slots).

    values[0] is log(lam a) + 1 - lam a; values[k] multiplies
    N^{(alpha-1)k + alpha}.
    """
    lam, a = case.lam, case.a
    order = _truncation_index(case.alpha / (1.0 - case.alpha))
    values = [math.log(lam * a) + 1.0 - lam * a]
    try:
        for k in range(1, order + 1):
            values.append(
                (-1.0) ** k
                * (
                    lam**k * (1.0 / k - a * lam / (k + 1.0))
                    - a ** (-k) * (1.0 / k - 1.0 / (k + 1.0))
                )
            )
    except OverflowError:
        raise ConvergenceError(f"slow series coefficient {k} overflows for {case}") from None
    return SeriesCoefficients(order=order, values=tuple(values))


def _require_exponential_slots(case: GammaCase, what: str) -> None:
    if case.beta != 1.0:
        raise DomainError(
            f"{what} is derived for exponential slots (beta = 1); use the exact "
            f"formulas for general beta"
        )
    if not case.a > 1.0 / case.lam:
        raise DomainError(
            f"{what} needs a above the mean rate 1/lam = {1.0 / case.lam}, got a={case.a}"
        )


def p_asym_fast(case: GammaCase) -> AsymptoticValue:
    """Refined point-probability series for alpha > 1.

    For alpha > 2 the correction sum is empty and the result reduces to the
    plain sharp fast-regime formula.
    """
    if not case.alpha > 1.0:
        raise RegimeError(f"fast series needs alpha > 1, got alpha={case.alpha}")
    _require_exponential_slots(case, "the fast series")
    coeff = fast_series_coefficients(case)
    N, alpha = case.N, case.alpha
    log_p = coeff.values[0] * N - 0.5 * math.log(2.0 * math.pi * case.a * N)
    for k in range(1, coeff.order + 1):
        log_p += coeff.values[k] * N ** ((1.0 - alpha) * k + 1.0)
    return AsymptoticValue(log_p, "FastExact", "Valid", 1.0)


def p_asym_slow(case: GammaCase) -> AsymptoticValue:
    """Refined point-probability series for alpha < 1."""
    if not case.alpha < 1.0:
        raise RegimeError(f"slow series needs alpha < 1, got alpha={case.alpha}")
    _require_exponential_slots(case, "the slow series")
    coeff = slow_series_coefficients(case)
    N, alpha = case.N, case.alpha
    log_p = (
        coeff.values[0] * N**alpha
        - math.log(math.sqrt(2.0 * math.pi) * case.a)
        + (0.5 * alpha - 1.0) * math.log(N)
    )
    for k in range(1, coeff.order + 1):
        log_p += coeff.values[k] * N ** ((alpha - 1.0) * k + alpha)
    return AsymptoticValue(log_p, "SlowIExact", "Valid", alpha)


def p_asym_intermediate(case: GammaCase) -> AsymptoticValue:
    """Point-probability approximation at alpha = 1 (exponential slots)."""
    if case.alpha != 1.0:
        raise RegimeError(f"intermediate formula needs alpha = 1, got alpha={case.alpha}")
    _require_exponential_slots(case, "the intermediate formula")
    lam, a, N = case.lam, case.a, case.N
    exponent = a * math.log(a * (1.0 + lam) / (1.0 + a)) + math.log(
        (1.0 + lam) / (lam * (1.0 + a))
    )
    log_p = -N * exponent - 0.5 * math.log(2.0 * math.pi * N * a * (a + 1.0))
    return AsymptoticValue(log_p, "Intermediate", "Valid", 1.0)
