"""Regime-dispatched approximations of the overflow probabilities.

For the scaled mixed Poisson count the module provides the exponential decay
rate for every resampling exponent alpha, and the sharp (prefactor-level)
approximations where they are available, tagged with their regime and
validity status.  The fast regime and the Poisson factor of case II are the
balanced regime's sharp form at a point-mass rate law, whose tilt is closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, InfeasibleTargetError, RegimeError
from .numerics import exp_or_inf
from .queue import _UNIT_RULE, _approx_from, _check_scale, _solve_tilt
from .rates import RateDistribution, bahadur_rao_constant, rate_function

__all__ = [
    "AsymptoticValue",
    "DecayRate",
    "REGIMES",
    "VALIDITIES",
    "log_asym_P",
    "approx_fast",
    "approx_slow_case1",
    "approx_slow_case2",
    "approx_intermediate",
    "approx_auto",
]

# the validity of each sharp regime: the paper proves the formula as an
# equivalent, or only as an asymptotic lower bound
_SHARP_VALIDITY = {
    "FastExact": "Valid",
    "FastLowerBound": "LowerBoundOnly",
    "SlowIExact": "Valid",
    "SlowILowerBound": "LowerBoundOnly",
    "SlowIIExact": "Valid",
    "Intermediate": "Valid",
}
REGIMES = (*_SHARP_VALIDITY, "LogOnly")
VALIDITIES = ("Valid", "LowerBoundOnly", "OutsideProvenRange")


@dataclass(frozen=True)
class AsymptoticValue:
    """A probability approximation carried in log space.

    ``value`` materializes exp(log_value) and silently underflows to 0.0
    below the double-precision range; ``gamma_exponent`` is the speed of the
    leading exponential decay, min(alpha, 1).  A NaN or +inf log value is a
    numerical failure and raises ConvergenceError.
    """

    log_value: float
    regime: str
    validity: str
    gamma_exponent: float

    def __post_init__(self) -> None:
        if not self.log_value < math.inf:
            raise ConvergenceError(f"the {self.regime} approximation evaluates to log {self.log_value}")
        if self.regime not in REGIMES:
            raise DomainError(f"unknown regime tag {self.regime!r}")
        if self.validity not in VALIDITIES:
            raise DomainError(f"unknown validity tag {self.validity!r}")

    @property
    def value(self) -> float:
        return exp_or_inf(self.log_value)


@dataclass(frozen=True)
class DecayRate:
    """Exponential decay rate r and speed gamma: log P_N ~ -N^gamma * r."""

    rate: float
    gamma: float

    def at(self, N: float, validity: str = "Valid") -> AsymptoticValue:
        """Materialize the rate-only approximation exp(-N^gamma * rate)."""
        _check_scale(N)
        return AsymptoticValue(
            log_value=-(N**self.gamma) * self.rate,
            regime="LogOnly",
            validity=validity,
            gamma_exponent=self.gamma,
        )


def _sharp_pair(log_tail: float, log_point: float, regime: str,
                gamma: float) -> tuple[AsymptoticValue, AsymptoticValue]:
    """The (tail, point) values of a sharp regime, with its validity."""
    validity = _SHARP_VALIDITY[regime]
    return (
        AsymptoticValue(log_tail, regime, validity, gamma),
        AsymptoticValue(log_point, regime, validity, gamma),
    )


def _check_rare(dist: RateDistribution, a: float) -> None:
    if not a > dist.mean:
        raise InfeasibleTargetError(
            f"overflow level must exceed the mean {dist.mean}, got a={a}"
        )


def _point_mass_count(mean: float, a: float) -> tuple[float, tuple[float, float, float]]:
    """Tilt log(a/mean) of the count Pois(N mean) at level a, with its
    one-node integrals in closed form: the compound count at the point-mass
    rate law, whose CGF is mean * tau."""
    theta = math.log(a / mean)
    return theta, (mean * math.expm1(theta), mean, 0.0)


def log_asym_P(dist: RateDistribution, alpha: float, a: float) -> DecayRate:
    """Decay rate of the overflow probability for any alpha > 0.

    Fast resampling (alpha > 1) sees only the mean rate; slow resampling
    (alpha < 1, unbounded support above a) is governed by the rate law's own
    deviations; the balanced case goes through the compound count Pois(X).
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    _check_rare(dist, a)
    if alpha > 1.0:
        theta, (cgf, _, _) = _point_mass_count(dist.mean, a)
        return DecayRate(rate=theta * a - cgf, gamma=1.0)
    if alpha == 1.0:
        theta, (cgf, _, _) = _solve_tilt(dist, _UNIT_RULE, a, math.nan)
        return DecayRate(rate=theta * a - cgf, gamma=1.0)
    if not dist.support_sup > a:
        raise InfeasibleTargetError(
            f"slow-regime rate needs support above a={a}; {dist} is bounded by "
            f"{dist.support_sup} (use approx_slow_case2 for the bounded case)"
        )
    return DecayRate(rate=rate_function(dist, a).value, gamma=alpha)


def approx_fast(
    dist: RateDistribution, alpha: float, a: float, N: float
) -> tuple[AsymptoticValue, AsymptoticValue]:
    """Sharp approximation in the fast regime (tail, point): that of the count
    Pois(N mean).

    Proven as an equivalent for alpha > 3; for alpha in (2, 3] only the
    asymptotic lower bound is known, and the value is tagged accordingly.
    """
    if alpha <= 2.0:
        raise RegimeError(f"fast approximation needs alpha > 2, got {alpha}")
    _check_scale(N)
    _check_rare(dist, a)
    theta, integrals = _point_mass_count(dist.mean, a)
    approx = _approx_from(N, theta, a, integrals, checked=False)
    regime = "FastExact" if alpha > 3.0 else "FastLowerBound"
    return _sharp_pair(approx.log_Q_check, approx.log_q_check, regime, 1.0)


def approx_slow_case1(
    dist: RateDistribution, alpha: float, a: float, N: float
) -> tuple[AsymptoticValue, AsymptoticValue]:
    """Sharp approximation in the slow regime when the rate law can exceed a.

    Proven as an equivalent for alpha < 1/3; lower bound only on [1/3, 1/2).
    Lattice rate laws are rejected because the non-lattice prefactor does not
    apply to them.
    """
    if not alpha < 0.5:
        raise RegimeError(f"slow case-I approximation needs alpha < 1/2, got {alpha}")
    _check_scale(N)
    _check_rare(dist, a)
    if not dist.support_sup > a:
        raise InfeasibleTargetError(
            f"case I needs support above a={a}; {dist} is bounded by {dist.support_sup}"
        )
    constant = bahadur_rao_constant(dist, a)  # raises LatticeError for lattice kinds
    point = rate_function(dist, a)
    n_alpha = N**alpha
    log_P = -n_alpha * point.value + math.log(constant) - 0.5 * alpha * math.log(N)
    log_p = (
        -n_alpha * point.value
        + math.log(constant * point.theta_star)
        - (1.0 - 0.5 * alpha) * math.log(N)
    )
    regime = "SlowIExact" if alpha < 1.0 / 3.0 else "SlowILowerBound"
    return _sharp_pair(log_P, log_p, regime, alpha)


def approx_slow_case2(
    b_plus: float,
    I_at_b: float,
    Iprime_at_b: float,
    C_X_at_b: float,
    alpha: float,
    a: float,
    N: float,
) -> tuple[AsymptoticValue, AsymptoticValue]:
    """Sharp approximation in the slow regime with support bounded below a.

    The rate-law constants at the support supremum (its rate function value,
    derivative, and non-lattice prefactor there) are supplied by the caller;
    all three must be finite and positive for the formula to apply.
    """
    if not alpha < 1.0:
        raise RegimeError(f"slow case-II approximation needs alpha < 1, got {alpha}")
    _check_scale(N)
    for name, val in (("I_at_b", I_at_b), ("Iprime_at_b", Iprime_at_b), ("C_X_at_b", C_X_at_b)):
        if not (math.isfinite(val) and val > 0.0):
            raise DomainError(f"case II requires finite positive {name}, got {val}")
    if not (0.0 < b_plus < a):
        raise DomainError(f"case II requires 0 < b_plus < a, got b_plus={b_plus}, a={a}")

    theta, integrals = _point_mass_count(b_plus, a)
    approx = _approx_from(N, theta, a, integrals, checked=False)
    # the rate law's own deviation to b_plus, on top of the count Pois(N b_plus)
    shift = (
        -(N**alpha) * I_at_b
        - 0.5 * alpha * math.log(N)
        + math.log(C_X_at_b * Iprime_at_b * b_plus / (a - b_plus))
    )
    return _sharp_pair(approx.log_Q_check + shift, approx.log_q_check + shift, "SlowIIExact",
                       min(alpha, 1.0))


def approx_intermediate(
    dist: RateDistribution, a: float, N: float
) -> tuple[AsymptoticValue, AsymptoticValue]:
    """Sharp approximation in the balanced regime via the compound count."""
    _check_scale(N)
    _check_rare(dist, a)
    theta, integrals = _solve_tilt(dist, _UNIT_RULE, a, math.nan)
    approx = _approx_from(N, theta, a, integrals, checked=False)
    return _sharp_pair(approx.log_Q_check, approx.log_q_check, "Intermediate", 1.0)


def approx_auto(
    dist: RateDistribution, alpha: float, a: float, N: float
) -> tuple[AsymptoticValue, AsymptoticValue]:
    """Dispatch on (alpha, support vs a) to the sharpest available formula.

    Exponents with no proven sharp form return the rate-only value tagged
    OutsideProvenRange for both the tail and the point probability.
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    _check_scale(N)
    _check_rare(dist, a)
    if alpha > 2.0:
        return approx_fast(dist, alpha, a, N)
    if alpha == 1.0:
        return approx_intermediate(dist, a, N)
    if alpha < 1.0 and dist.support_sup < a:
        raise InfeasibleTargetError(
            f"support of {dist} is bounded by {dist.support_sup} < a={a}; the sharp "
            "formula needs rate-law constants at the bound that no shipped "
            "distribution provides -- call approx_slow_case2 with explicit constants"
        )
    if alpha < 0.5 and dist.support_sup > a:
        return approx_slow_case1(dist, alpha, a, N)
    log_only = log_asym_P(dist, alpha, a).at(N, validity="OutsideProvenRange")
    return (log_only, log_only)
