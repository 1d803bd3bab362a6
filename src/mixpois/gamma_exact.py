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
from .numerics import log_gamma
from .poisson_ldp import exact_count
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
_MAX_TERMS = 10_000  # correction terms a series may take; alpha within 1e-4 of 1 needs more


@dataclass(frozen=True)
class GammaCase:
    """One evaluation instance: slot shape beta, rate lam, exponent alpha,
    target level a and scale N.  N^alpha*beta is the pooled gamma shape and
    need not be an integer; N*a must be a nonnegative integer for point
    probabilities.  Both must be finite."""

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
        try:
            finite = math.isfinite(self.shape) and math.isfinite(self.N * self.a)
        except OverflowError:
            finite = False
        if not finite:
            raise DomainError(
                f"the pooled shape N^alpha*beta and the count N*a must be finite, "
                f"got alpha={self.alpha}, N={self.N}, beta={self.beta}, a={self.a}"
            )

    @property
    def shape(self) -> float:
        """Pooled gamma shape N^alpha * beta."""
        return math.exp(self.alpha * math.log(self.N)) * self.beta

    @property
    def count(self) -> int:
        return exact_count(self.N * self.a)

    def _log_q(self) -> tuple[float, float]:
        """(log q, log(1-q)) for the success odds q = N^(1-a)/(lam + N^(1-a))."""
        t = (1.0 - self.alpha) * math.log(self.N)
        denom = np.logaddexp(math.log(self.lam), t)
        return t - float(denom), math.log(self.lam) - float(denom)


@dataclass(frozen=True)
class SeriesCoefficients:
    """Truncated correction coefficients of a refined asymptotic series."""

    order: int
    values: tuple[float, ...]


def _log_pmf(case: GammaCase, k: int) -> float:
    """log of the negative binomial pmf at count k (pooled shape may be real)."""
    r = case.shape
    log_q, log_1mq = case._log_q()
    value = log_gamma(k + r) - log_gamma(k + 1.0) - log_gamma(r) + k * log_q + r * log_1mq
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
    """log of the exact tail P(count >= N*a), summed in log space.

    Terms are accumulated upward from N*a; once past the mode, the remaining
    tail is geometrically dominated by the running term ratio and summation
    stops when that bound drops below _TAIL_REL_TOL of the partial sum.
    """
    k0 = case.count
    if k0 == 0:
        return 0.0
    r = case.shape
    log_q, _ = case._log_q()
    q = math.exp(log_q)

    log_term = _log_pmf(case, k0)
    log_sum = log_term
    k = k0
    for _ in range(50_000_000):
        ratio = q * (k + r) / (k + 1.0)
        ratio_sup = max(ratio, q)  # term ratios approach q monotonically
        if ratio_sup < 1.0:
            log_remainder_bound = log_term + math.log(ratio_sup) - math.log1p(-ratio_sup)
            if log_remainder_bound < log_sum + math.log(_TAIL_REL_TOL):
                return log_sum
        k += 1
        log_term += log_q + math.log((k - 1.0 + r) / k)
        log_sum = float(np.logaddexp(log_sum, log_term))
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
