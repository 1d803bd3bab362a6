"""Asymptotic dimensioning: smallest capacity level meeting an overflow
target, with the bracketing integer server counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, MgfDomainError
from .queue import (
    _THETA_MAX,
    ServiceTime,
    _tilt_cap_exp,
    approx_at_tilt,
    load_and_variance,
    mean_load,
    theta_star_queue,
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
    it belongs to is one integral, so bisection runs on theta until
    |Q - eps| < tol; the level found is then re-evaluated at the two
    bracketing integer server counts.
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

    def Q(theta: float) -> float:
        return approx_at_tilt(dist, service, N, theta)[1].Q_check

    lo, hi = 0.0, _tilt_cap_exp(dist)
    if math.isfinite(hi):
        if Q(hi) > eps:
            raise MgfDomainError(
                f"epsilon={eps} is unreachable: the approximation cannot be pushed "
                f"below it within the MGF domain of {dist}"
            )
    else:
        # Q falls to 0 as theta grows; an overflow (NaN) also lies above the root
        hi = 1.0
        while Q(hi) >= eps:
            if hi >= _THETA_MAX:
                raise ConvergenceError("no upper bracket found for the staffing tilt")
            lo, hi = hi, min(2.0 * hi, _THETA_MAX)

    for _ in range(200):
        theta = 0.5 * (lo + hi)
        q = Q(theta)
        if abs(q - eps) < tol:
            break
        if q > eps:
            lo = theta
        else:
            hi = theta
    else:
        raise ConvergenceError(
            f"staffing bisection did not reach |Q - eps| < {tol} "
            f"(tilt bracket [{lo}, {hi}])"
        )

    a, _ = approx_at_tilt(dist, service, N, theta, checked=True)
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
        Q_at_floor=_Q_at_servers(dist, service, N, servers_floor),
        Q_at_ceil=_Q_at_servers(dist, service, N, servers_ceil),
        M1=loads.M1,
        M_inf=loads.M_inf,
        epsilon=eps,
    )


def _Q_at_servers(dist, service, N: int, servers: int) -> float:
    a = servers / N
    theta = theta_star_queue(dist, service, a)
    return approx_at_tilt(dist, service, N, theta, a=a, checked=True)[1].Q_check
