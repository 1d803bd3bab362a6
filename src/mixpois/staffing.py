"""Asymptotic dimensioning: smallest capacity level meeting an overflow
target, with the bracketing integer server counts."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, RarityError
from .numerics import Interval, find_root_increasing
from .queue import (
    ServiceTime,
    _approx_from,
    _beyond_cap,
    _check_rare,
    _cold_hint,
    _level,
    _rule,
    _solve_tilt,
    _tilt_cap_exp,
    load_and_variance,
    mean_load,
)
from .rates import RateDistribution

__all__ = ["StaffingResult", "solve_staffing"]

# the staffing tilt search stops at |Q / eps - 1| < _BAND
_BAND = 1e-6


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
) -> StaffingResult:
    """Smallest a with the occupancy-tail approximation at most eps.

    The approximation decreases along the tilt theta, and the level a(theta)
    it belongs to is one integral, so log eps - log Q(theta) = 0 is solved
    by Newton steps in log theta, from a bracket that ends at the occupancy's
    central-limit tilt, until |log eps - log Q| <= log1p(_BAND) / 2, so Q / eps
    lies within _BAND of 1, or until a level below the rarity boundary, mean
    load (1 + 1e-6), meets eps, a RarityError.  The level found is then
    re-evaluated at the two bracketing integer server counts, each tilt
    predicted to second order from the staffing tilt and solved from there.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"target epsilon must be in (0, 1), got {eps}")
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"N must be a positive integer, got {N}")

    log_eps = math.log(eps)
    boundary = mean_load(dist, service) * (1.0 + 1e-6)
    rule = _rule(service)
    seen = {}  # the integrals at each tilt evaluated, by tilt; the root is one of them
    sigma2s = {}  # sigma^2 at each tilt where g reached the approximation, in evaluation order

    def check_boundary(a: float) -> None:
        if a < boundary:
            raise RarityError(f"epsilon={eps} is met already at the rarity boundary "
                              f"a={boundary:.6g}; no dimensioning needed")

    def g(u: float) -> tuple[float, float]:
        # d log Q / d theta = -theta N sigma^2 - 1/(e^theta - 1) - (log sigma^2)'/2;
        # the last term needs a third CGF derivative, so it is taken from the
        # previous evaluation as a difference quotient
        theta = math.exp(u)
        integrals = seen[theta] = rule.integrals(dist, math.expm1(theta))
        a = _level(theta, integrals)
        # the integrals overflow, and the count N*a leaves the float range, only above the root
        if not math.isfinite(N * a):
            return math.inf, math.nan
        # the level rises with theta and is positive at the root: one that underflows to 0
        # lies below it, where log sigma^2 may be -inf
        if a == 0.0:
            return -math.inf, math.nan
        approx = _approx_from(N, theta, a, integrals, checked=False)
        # Q falls along theta, so eps met at a level below the boundary is met below it
        if approx.log_Q_check <= log_eps:
            check_boundary(a)
        if math.isnan(approx.log_Q_check):
            return math.inf, math.nan
        slope = theta * N * approx.sigma2 + 1.0 / math.expm1(theta)
        if sigma2s:
            last, last_sigma2 = next(reversed(sigma2s.items()))
            if last != theta:
                slope += 0.5 * (math.log(approx.sigma2) - math.log(last_sigma2)) / (theta - last)
        sigma2s[theta] = approx.sigma2
        return log_eps - approx.log_Q_check, theta * slope

    # log theta keeps theta = 0, where Q is infinite, outside every bracket,
    # and the search stops at the smallest normal theta.  The hint spans a
    # factor e up to the central-limit tilt sqrt(2 log(1/eps) / Var), which
    # lies above the root (by a factor 1.05 to 2.7 on the Table grids), or
    # a factor e^3 up to the top of the cold bracket where that tilt is not
    # finite or lies above it
    loads = load_and_variance(dist, service, N)
    top = math.log(_cold_hint(dist).hi)
    clt = (0.5 * math.log(-2.0 * log_eps / loads.var_total)
           if 0.0 < loads.var_total < math.inf else math.inf)
    hint = Interval(clt - 1.0, clt) if clt <= top else Interval(top - 3.0, top)
    try:
        u = find_root_increasing(g, hint, lo_limit=math.log(sys.float_info.min),
                                 hi_limit=math.log(_tilt_cap_exp(dist)),
                                 tol=0.5 * math.log1p(_BAND))
    except RarityError:
        raise
    except DomainError:
        raise _beyond_cap(dist, f"epsilon={eps}", lambda cap: (
            f"Q = {math.exp(log_eps - g(math.log(cap))[0]):.6g}")) from None

    theta = math.exp(u)
    integrals = rule.checked(dist, math.expm1(theta), seen[theta])
    a = _level(theta, integrals)
    approx = _approx_from(N, theta, a, integrals, checked=True)
    if math.isinf(approx.Q_check):
        raise DomainError(
            f"epsilon={eps}: the staffing tilt search stopped at theta={theta!r}, where "
            f"Q = exp({approx.log_Q_check:.6g}) lies beyond the float range"
        )
    check_boundary(a)  # a bad input is named before a band left unmet
    if approx.log_Q_check > 0.0:
        raise DomainError(f"epsilon={eps}: Q = {approx.Q_check:.6g} > 1 at theta={theta!r}; "
                          "the level crosses epsilon within the float resolution of "
                          "theta, which is beyond double precision")
    if not abs(approx.Q_check / eps - 1.0) < _BAND:
        raise ConvergenceError(
            f"staffing tilt search stopped at theta={theta!r} with "
            f"|Q / eps - 1| = {abs(approx.Q_check / eps - 1.0):.3e}, not below {_BAND}"
        )
    # sigma^2 = da/dtheta changes along theta at a rate taken as a difference
    # quotient against the nearest other iterate (with none, the server
    # counts get a first-order prediction)
    near = min(sigma2s.keys() - {theta}, key=lambda t: abs(t - theta), default=theta)
    dsigma2 = (sigma2s[near] - approx.sigma2) / (near - theta) if near != theta else 0.0
    staffing = (theta, a, approx.sigma2, dsigma2)
    servers_floor = math.floor(N * a)
    servers_ceil = math.ceil(N * a)
    return StaffingResult(
        a_eps=a,
        servers_floor=servers_floor,
        servers_ceil=servers_ceil,
        Q_at_floor=_Q_at_servers(dist, service, N, servers_floor, staffing),
        Q_at_ceil=_Q_at_servers(dist, service, N, servers_ceil, staffing),
        M1=loads.M1,
        M_inf=loads.M_inf,
        epsilon=eps,
    )


def _Q_at_servers(dist, service, N: int, servers: int,
                  staffing: tuple[float, float, float, float]) -> float:
    """Q at the level a = servers / N, within 1/N of the staffing level.

    ``staffing`` is (theta_eps, a_eps, sigma^2, (sigma^2)') at the staffing
    tilt.  The level a(theta) rises with slope sigma^2, so its second-order
    expansion about theta_eps predicts the tilt.  From that guess the level
    solve of queue_approx (queue._solve_tilt) takes Newton steps on its
    residual, and searches the cold bracket where they leave the level
    unsettled.  Zero servers are always busy: Q = 1.
    """
    if servers == 0:
        return 1.0
    a = servers / N
    _check_rare(dist, service, a)
    theta_eps, a_eps, sigma2_eps, dsigma2 = staffing
    da = a - a_eps
    disc = sigma2_eps * sigma2_eps + 2.0 * dsigma2 * da
    # the root of a_eps + sigma^2 d + (sigma^2)' d^2 / 2 = a nearest d = 0
    theta = theta_eps + 2.0 * da / (sigma2_eps + math.sqrt(disc)) if disc >= 0.0 else math.nan
    theta, integrals = _solve_tilt(dist, _rule(service), a, theta)
    return _approx_from(N, theta, a, integrals, checked=True).Q_check
