"""Numerical kernel: the count conventions for a real threshold N*a,
log-gamma, fixed-node quadrature and safeguarded root finding.

Everything here is built from elementary functions only, so results are
bit-stable across platforms.  All functions are pure.  The adaptive Simpson
``integrate`` is the tests' reference integrator; no entry point calls it,
but the benchmark's per-layer tracer binds it by name, so it stays here
until the tracer reads counters instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "Interval",
    "QuadratureSpec",
    "exp_or_inf",
    "ceil_count",
    "exact_count",
    "log_gamma",
    "integrate",
    "gauss_legendre",
    "find_root_increasing",
]

_LN_SQRT_2PI = 0.9189385332046727  # log sqrt(2 pi)
_INT_TOL = 1e-9

# Lanczos approximation, g = 7, 9 coefficients.  Relative error of the
# reconstructed gamma is below 1e-13 over the positive reals.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


@dataclass(frozen=True)
class Interval:
    """Closed finite interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise DomainError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and interior breakpoints for :func:`integrate`.

    Breakpoints mark known kinks/jumps of the integrand; integration is done
    independently on each panel between consecutive breakpoints.
    ``noise_floor_rel`` declares the relative evaluation noise of the
    integrand itself: refinement stops once the panel correction falls below
    that fraction of the panel magnitude, since subdividing further would
    only chase noise.
    """

    breakpoints: tuple[float, ...] = ()
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_depth: int = 48
    noise_floor_rel: float = 1e-14

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise DomainError("quadrature tolerances must be positive")
        if not 0.0 < self.noise_floor_rel < 1e-2:
            raise DomainError("noise_floor_rel must be in (0, 1e-2)")
        if self.max_depth < 1:
            raise DomainError("max_depth must be a positive integer")
        pts = tuple(sorted(float(b) for b in self.breakpoints))
        object.__setattr__(self, "breakpoints", pts)


def exp_or_inf(x: float) -> float:
    """e^x, infinite beyond the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def ceil_count(n_times_a: float) -> int:
    """Smallest integer k with k >= n_times_a, snapping near-integers.

    This is the shared convention for turning a real threshold N*a into the
    integer count defining the event {count >= N*a}.
    """
    if not 0.0 <= n_times_a < math.inf:
        raise DomainError(f"count threshold must be finite and nonnegative, got {n_times_a}")
    if 0.0 < n_times_a <= _INT_TOL:
        raise DomainError(f"count threshold N*a = {n_times_a:.6g} is positive but within "
                          f"{_INT_TOL:g} of 0, where it would snap to the count 0")
    nearest = round(n_times_a)
    if abs(n_times_a - nearest) <= _INT_TOL:
        return int(nearest)
    return int(math.ceil(n_times_a))


def exact_count(n_times_a: float) -> int:
    """Integer value of N*a, erroring when it is fractional beyond 1e-9."""
    if not math.isfinite(n_times_a):
        raise DomainError(f"count must be finite, got N*a = {n_times_a}")
    nearest = round(n_times_a)
    if abs(n_times_a - nearest) > _INT_TOL:
        raise DomainError(
            f"point probabilities need an integer count, got N*a = {n_times_a}"
        )
    if nearest < 0:
        raise DomainError(f"count must be nonnegative, got {n_times_a}")
    return int(nearest)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (Lanczos approximation)."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection keeps full accuracy near zero
        reflected = math.pi / math.sin(math.pi * x)
        if reflected == math.inf:  # subnormal x, where log Gamma(x) is -log x to the last bit
            return -math.log(x)
        return math.log(reflected) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, 9):
        acc += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _edge_value(f: Callable[[float], float], edge: float, inward: float, width: float) -> float:
    """Sample f at the panel edge, a width-proportional hair inside.

    Edge values are never taken exactly at panel boundaries, so one-sided
    limits at declared breakpoints are honored, and the sampling offset
    shrinks with the panel, keeping boundary layers resolvable.
    """
    x = edge + inward * 1e-13 * width
    if x == edge:  # offset rounded away; the edge itself must do
        return f(edge)
    return f(x)


def _adaptive_panel(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    whole: float,
    tol: float,
    noise_floor_rel: float,
    depth: int,
    max_depth: int,
) -> float:
    width = hi - lo
    mid = 0.5 * (lo + hi)
    flo = _edge_value(f, lo, 1.0, width)
    fhi = _edge_value(f, hi, -1.0, width)
    fmid = f(mid)
    left = _simpson(flo, f(0.5 * (lo + mid)), fmid, mid - lo)
    right = _simpson(fmid, f(0.5 * (mid + hi)), fhi, hi - mid)
    err = (left + right - whole) / 15.0
    # the noise floor stops subdivision once the Richardson correction falls
    # below the declared evaluation noise on this panel (at least the double
    # precision cancellation level of left + right - whole)
    if abs(err) <= max(tol, noise_floor_rel * (abs(left) + abs(right))):
        return left + right + err
    if depth >= max_depth:
        raise ConvergenceError(
            f"quadrature did not converge on [{lo}, {hi}] at depth {depth} "
            f"(residual {abs(err):.3e} > {tol:.3e})"
        )
    half = 0.5 * tol
    return _adaptive_panel(
        f, lo, mid, left, half, noise_floor_rel, depth + 1, max_depth
    ) + _adaptive_panel(f, mid, hi, right, half, noise_floor_rel, depth + 1, max_depth)


def integrate(f: Callable[[float], float], interval: Interval, spec: QuadratureSpec | None = None) -> float:
    """Adaptive Simpson quadrature of ``f`` over ``interval``.

    The interval is cut into panels at ``spec.breakpoints`` and each panel is
    integrated independently, so the integrand only needs to be smooth between
    consecutive breakpoints.  Panel endpoints are sampled a hair inside the
    panel (one-sided limits), which keeps jump discontinuities located exactly
    at a breakpoint from poisoning the endpoint values.
    """
    spec = spec or QuadratureSpec()
    for b in spec.breakpoints:
        if not (interval.lo < b < interval.hi):
            raise DomainError(
                f"breakpoint {b} is not strictly inside [{interval.lo}, {interval.hi}]"
            )
    if interval.width == 0.0:
        return 0.0
    edges = [interval.lo, *spec.breakpoints, interval.hi]

    # Each declared panel is pre-split into 16 sub-panels; their composite sum
    # sets the scale for the relative tolerance and seeds the recursion, so a
    # peak is only lost if it hides between the pre-split nodes entirely.
    total = 0.0
    sub_panels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = (hi - lo) / 16.0
        xs = [lo + i * h for i in range(17)]
        fs = [_edge_value(f, lo, 1.0, hi - lo)] + [f(x) for x in xs[1:-1]] + [
            _edge_value(f, hi, -1.0, hi - lo)
        ]
        for j in range(8):
            x0, x1 = xs[2 * j], xs[2 * j + 2]
            whole = _simpson(fs[2 * j], fs[2 * j + 1], fs[2 * j + 2], x1 - x0)
            sub_panels.append((x0, x1, whole))
            total += whole

    tol_total = max(spec.abs_tol, spec.rel_tol * abs(total))
    tol_panel = tol_total / len(sub_panels)
    result = 0.0
    for lo, hi, whole in sub_panels:
        result += _adaptive_panel(
            f, lo, hi, whole, tol_panel, spec.noise_floor_rel, 0, spec.max_depth
        )
    return result


def _legendre(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Legendre polynomial of the given order and its derivative at x, |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for n in range(2, order + 1):
        p_prev, p = p, ((2 * n - 1) * x * p - (n - 1) * p_prev) / n
    return p, order * (x * p - p_prev) / (x * x - 1.0)


@functools.lru_cache(maxsize=8)
def _gauss_legendre_reference(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence, started from the
    asymptotic node locations; computed once per order.
    """
    x = np.cos(math.pi * (np.arange(order, 0, -1) - 0.25) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre(order, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    else:
        raise ConvergenceError(f"Gauss-Legendre nodes of order {order} did not converge")
    _, dp = _legendre(order, x)
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


def gauss_legendre(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule with ``order``
    nodes on each panel between consecutive ``edges``.

    The rule integrates polynomials of degree below ``2 * order`` exactly on
    every panel and never samples a panel edge, so an integrand may jump or
    lose smoothness at one.  ``weights @ f(nodes)`` is the integral of f.
    """
    if not (isinstance(order, int) and order >= 1):
        raise DomainError(f"quadrature order must be a positive integer, got {order}")
    edges = np.asarray(edges, dtype=np.float64)
    if not (edges.ndim == 1 and edges.size >= 2 and np.all(np.isfinite(edges))
            and np.all(np.diff(edges) > 0.0)):
        raise DomainError("panel edges must be finite and strictly increasing, at least two")
    ref_nodes, ref_weights = _gauss_legendre_reference(order)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * ref_nodes).ravel(), (half * ref_weights).ravel()


def find_root_increasing(
    g: Callable[[float], tuple[float, float]],
    bracket_hint: Interval,
    lo_limit: float,
    hi_limit: float,
    tol: float,
) -> float:
    """Root of a continuous strictly increasing function on the finite domain
    [lo_limit, hi_limit]; ``g(x)`` returns its value and its slope at x.

    The hint bracket is expanded by doubling, never past the limits, until
    the sign changes.  Then each step is a Newton step, the first from the
    bracket end where |g| is smaller and the others from the latest iterate,
    if it lands strictly inside the bracket, and a bisection otherwise (so a
    zero, negative, infinite or NaN slope bisects), until the latest point,
    the starting end included, has ``|g| <= tol``, the caller's stop in g's
    units, or until no float lies strictly inside the bracket, where the end
    with the smaller |g| is the root.  The slope only steers the steps: an
    approximate one slows convergence but cannot move the root.
    """
    if not (math.isfinite(lo_limit) and math.isfinite(hi_limit)):
        raise DomainError(f"root search limits must be finite, got [{lo_limit}, {hi_limit}]")
    lo, hi = bracket_hint.lo, bracket_hint.hi
    glo, slo = g(lo)
    ghi, shi = g(hi)

    # the step doubles from at least 1e-12, so it reaches either finite limit
    step = max(hi - lo, 1e-12)
    while not glo <= 0.0:
        if lo <= lo_limit:
            raise DomainError(f"no sign change: g({lo}) = {glo} > 0 at the domain boundary")
        hi, ghi, shi = lo, glo, slo
        lo = max(lo_limit, lo - step)
        glo, slo = g(lo)
        step *= 2.0

    step = max(hi - lo, 1e-12)
    while not ghi >= 0.0:
        if hi >= hi_limit:
            raise DomainError(f"no sign change: g({hi}) = {ghi} < 0 at the domain boundary")
        lo, glo, slo = hi, ghi, shi
        hi = min(hi_limit, hi + step)
        ghi, shi = g(hi)
        step *= 2.0

    # starting from the smaller |g| keeps the first step away from a pole of
    # g just beyond the bracket, where Newton steps only creep
    x, gx, slope = (lo, glo, slo) if -glo < ghi else (hi, ghi, shi)
    for _ in range(800):
        if abs(gx) <= tol:
            return x
        x = x - gx / slope if slope > 0.0 else math.nan
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # the bracket ends are adjacent floats
                return lo if -glo < ghi else hi
        gx, slope = g(x)
        if gx < 0.0:
            lo, glo = x, gx
        else:
            hi, ghi = x, gx
    raise ConvergenceError(f"root refinement stalled on [{lo}, {hi}]")
