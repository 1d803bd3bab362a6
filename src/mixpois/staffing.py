"""Asymptotic dimensioning: smallest capacity level meeting an overflow
target, with the bracketing integer server counts."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .numerics import _ROOT_TOL, Interval, find_root_increasing
from .queue import (
    ServiceTime,
    _approx_from,
    _beyond_cap,
    _check_rare,
    _cold_hint,
    _rule,
    _solve_tilt,
    _tilt_cap_exp,
    load_and_variance,
    mean_load,
)
from .rates import RateDistribution

__all__ = ["StaffingResult", "solve_staffing"]


@dataclass(frozen=True)
class StaffingResult:
    """Dimensioning output at one (distribution, service, N, epsilon)."""

    a_eps: float
    servers_floor: int
    servers_ceil: int
    Q_at_floor: float
    Q_at_ceil: float
    M1: float
    M_inf: float
    epsilon: float


def solve_staffing(
    dist: RateDistribution,
    service: ServiceTime,
    N: int,
    eps: float,
    tol: float = 1e-9,
) -> StaffingResult:
    """Smallest a with the occupancy-tail approximation at most eps.

    The approximation decreases along the tilt theta, and the level a(theta)
    it belongs to is one integral, so log eps - log Q(theta) = 0 is solved
    by Newton steps in log theta until |Q - eps| < tol; the level found is
    then re-evaluated at the two bracketing integer server counts, each
    tilt searched from a Newton step off the staffing tilt.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"target epsilon must be in (0, 1), got {eps}")
    if not 0.0 < tol < eps:
        raise DomainError(
            f"tol must lie in (0, eps): the termination band |Q - eps| < tol is "
            f"meaningless otherwise (got tol={tol}, eps={eps})"
        )
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"N must be a positive integer, got {N}")

    # |log Q - log eps| below half of log1p(tol / eps) keeps Q within tol of
    # eps.  The root finder stops at |g| <= _ROOT_TOL or at a bracket narrower
    # than that, so g measures log Q in units of that band over _ROOT_TOL: the
    # value stop is the band, and the bracket stop a log-theta width of _ROOT_TOL
    log_eps = math.log(eps)
    scale = _ROOT_TOL / (0.5 * math.log1p(tol / eps))
    rule = _rule(service)
    seen = {}  # the integrals at each tilt evaluated, by tilt; the root is one of them
    previous = []  # theta and log sigma^2 of the last evaluation

    def g(u: float) -> tuple[float, float]:
        # d log Q / d theta = -theta N sigma^2 - 1/(e^theta - 1) - (log sigma^2)'/2;
        # the last term needs a third CGF derivative, so it is taken from the
        # previous evaluation as a difference quotient
        theta = math.exp(u)
        integrals = seen[theta] = rule.integrals(dist, math.expm1(theta))
        a = math.exp(theta) * integrals[1]
        # the integrals overflow, and the count N*a leaves the float range, only above the root
        if not math.isfinite(N * a):
            return math.inf, math.nan
        # the level rises with theta and is positive at the root: one that underflows to 0
        # lies below it, where log sigma^2 may be -inf
        if a == 0.0:
            return -math.inf, math.nan
        approx = _approx_from(N, theta, a, integrals, checked=False)
        if math.isnan(approx.log_Q_check):
            return math.inf, math.nan
        log_sigma2 = math.log(approx.sigma2)
        slope = theta * N * approx.sigma2 + 1.0 / math.expm1(theta)
        if previous and previous[0] != theta:
            slope += 0.5 * (log_sigma2 - previous[1]) / (theta - previous[0])
        previous[:] = theta, log_sigma2
        return (log_eps - approx.log_Q_check) * scale, theta * slope * scale

    # log theta keeps theta = 0, where Q is infinite, outside every bracket,
    # and the search stops at the smallest normal theta; the hint spans a
    # factor e^3 in theta up to the top of the cold bracket
    top = math.log(_cold_hint(dist).hi)
    bottom = math.log(sys.float_info.min)
    try:
        u = find_root_increasing(g, Interval(top - 3.0, top), lo_limit=bottom,
                                 hi_limit=math.log(_tilt_cap_exp(dist)))
    except DomainError:
        if g(bottom)[0] > 0.0:
            raise DomainError(f"epsilon={eps} is not reached at any tilt down to "
                              f"{sys.float_info.min:.6g}: the sharp approximation there is "
                              "below it or not finite") from None
        raise _beyond_cap(dist, f"epsilon={eps}", lambda cap: (
            f"Q = {math.exp(log_eps - g(math.log(cap))[0] / scale):.6g}")) from None

    theta = math.exp(u)
    integrals = rule.checked(dist, math.expm1(theta), seen[theta])
    a = math.exp(theta) * integrals[1]
    approx = _approx_from(N, theta, a, integrals, checked=True)
    if math.isinf(approx.Q_check):
        raise DomainError(
            f"epsilon={eps}: the staffing tilt search stopped at theta={theta!r}, where "
            f"Q = exp({approx.log_Q_check:.6g}) lies beyond the float range"
        )
    if not abs(approx.Q_check - eps) < tol:
        raise ConvergenceError(
            f"staffing tilt search stopped at theta={theta!r} with "
            f"|Q - eps| = {abs(approx.Q_check - eps):.3e}, not below {tol}"
        )
    boundary = mean_load(dist, service) * (1.0 + 1e-6)
    if a < boundary:
        raise DomainError(
            f"epsilon={eps} is met already at the rarity boundary a={boundary:.6g}; "
            "no dimensioning needed"
        )
    servers_floor = math.floor(N * a)
    servers_ceil = math.ceil(N * a)
    loads = load_and_variance(dist, service, N)
    return StaffingResult(
        a_eps=a,
        servers_floor=servers_floor,
        servers_ceil=servers_ceil,
        Q_at_floor=_Q_at_servers(dist, service, N, servers_floor, theta, approx.sigma2, a),
        Q_at_ceil=_Q_at_servers(dist, service, N, servers_ceil, theta, approx.sigma2, a),
        M1=loads.M1,
        M_inf=loads.M_inf,
        epsilon=eps,
    )


def _Q_at_servers(dist, service, N: int, servers: int, theta_eps: float, sigma2_eps: float,
                  a_eps: float) -> float:
    """Q at the level a = servers / N, within 1/N of the staffing level a_eps.

    The tilt is searched from theta0 +- w: theta0 is the Newton step from the
    staffing tilt theta_eps (da/dtheta = sigma^2) and w half its length plus
    1e-9.
    """
    a = servers / N
    _check_rare(dist, service, a)
    theta0 = theta_eps + (a - a_eps) / sigma2_eps
    w = 0.5 * abs(theta0 - theta_eps) + 1e-9
    # the search must stay below the MGF wall, where the CGF itself raises
    top = _tilt_cap_exp(dist)
    lo, hi = (min(max(t, 0.0), top) for t in (theta0 - w, theta0 + w))
    # a prediction wholly below 0 or past the wall predicts nothing
    hint = Interval(lo, hi) if lo < hi else _cold_hint(dist)
    theta, integrals = _solve_tilt(dist, _rule(service), a, hint)
    return _approx_from(N, theta, a, integrals, checked=True).Q_check
