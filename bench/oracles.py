"""Reference values the benchmark checks the program's outputs against.

Everything here is independent of the package under test: exact
probabilities are summed with ``math.lgamma`` and ``math.fsum`` rather than
the package's in-house special functions, and the staffing levels are the
paper's tabulated values.
"""

from __future__ import annotations

import functools
import math

# Tables 1 (pois:2) and 2 (twopoint:0.75,1,5), N = 100:
# (service kind, mean E, eps) -> (a_eps, Q_floor/eps, Q_ceil/eps)
TABLES = {
    "pois:2": {
        ("exp", 0.05, 1e-3): (0.2516, 1.1009, 0.6033),
        ("exp", 0.5, 1e-3): (1.2602, 1.0053, 0.7802),
        ("exp", 1.0, 1e-3): (1.7537, 1.0784, 0.8780),
        ("exp", 0.05, 1e-4): (0.2885, 1.7277, 0.9039),
        ("exp", 0.5, 1e-4): (1.3460, 1.1858, 0.8921),
        ("exp", 1.0, 1e-4): (1.8587, 1.2238, 0.9702),
        ("det", 0.05, 1e-3): (0.2782, 1.4983, 0.9133),
        ("det", 0.5, 1e-3): (1.4809, 1.0185, 0.8279),
        ("det", 1.0, 1e-3): (2.6636, 1.0565, 0.9070),
        ("det", 0.05, 1e-4): (0.3223, 1.1319, 0.6547),
        ("det", 0.5, 1e-4): (1.5857, 1.1407, 0.9036),
        ("det", 1.0, 1e-4): (2.8048, 1.0869, 0.9136),
        ("pareto", 0.05, 1e-3): (0.2350, 1.3845, 0.7229),
        ("pareto", 0.5, 1e-3): (1.0074, 1.2375, 0.9268),
        ("pareto", 1.0, 1e-3): (1.4250, 1.1252, 0.8894),
        ("pareto", 0.05, 1e-4): (0.2688, 1.8616, 0.9194),
        ("pareto", 0.5, 1e-4): (1.0818, 1.0613, 0.7633),
        ("pareto", 1.0, 1e-4): (1.5167, 1.1959, 0.9164),
    },
    "twopoint:0.75,1,5": {
        ("exp", 0.05, 1e-3): (0.2662, 1.4061, 0.8115),
        ("exp", 0.5, 1e-3): (1.2991, 1.2266, 0.9787),
        ("exp", 1.0, 1e-3): (1.8061, 1.1182, 0.9307),
        ("exp", 0.05, 1e-4): (0.3056, 1.4107, 0.7615),
        ("exp", 0.5, 1e-4): (1.3942, 1.1124, 0.8601),
        ("exp", 1.0, 1e-4): (1.9234, 1.0742, 0.8717),
        ("det", 0.05, 1e-3): (0.3012, 1.0539, 0.6640),
        ("det", 0.5, 1e-3): (1.5438, 1.0708, 0.8934),
        ("det", 1.0, 1e-3): (2.7487, 1.1232, 0.9827),
        ("det", 0.05, 1e-4): (0.3484, 1.5388, 0.9209),
        ("det", 0.5, 1e-4): (1.6632, 1.0669, 0.8690),
        ("det", 1.0, 1e-4): (2.9094, 1.1532, 0.9905),
        ("pareto", 0.05, 1e-3): (0.2461, 1.4490, 0.7888),
        ("pareto", 0.5, 1e-3): (1.0381, 1.2856, 0.7069),
        ("pareto", 1.0, 1e-3): (1.4671, 1.1606, 0.9393),
        ("pareto", 0.05, 1e-4): (0.2817, 1.1255, 0.5649),
        ("pareto", 0.5, 1e-4): (1.1200, 1.0002, 0.7408),
        ("pareto", 1.0, 1e-4): (1.5688, 1.2335, 0.9709),
    },
}
# This tabulated ratio pair contradicts its own tabulated level (it belongs
# to a superseded draft of Table 2).  Its level is still checked; its pair
# mismatch is reported as a reference-data erratum, not as a failure.
ERRATUM_PAIR = ("twopoint:0.75,1,5", "pareto", 0.5, 1e-3)
A_TOL = 2e-4
PAIR_TOL = 0.02

# Criterion-3 crude occupancy audits at N = 100, service exp:0.5, eps = 1e-3:
# rate law -> (tabulated a_eps, tabulated Q/eps).
OCCUPANCY_AUDITS = {"pois:2": (1.2602, 0.7215), "twopoint:0.75,1,5": (1.2991, 0.9002)}


def _log_nb_pmf(r: float, log_q: float, log_1mq: float, k: int) -> float:
    # log Gamma(k + r) - log Gamma(r) as a sum of logs: the difference of two
    # lgamma values loses all digits once the pooled shape r is large
    log_rising = math.fsum(math.log(r + j) for j in range(k))
    return log_rising - math.lgamma(k + 1.0) + k * log_q + r * log_1mq


def nb_rounding_scale(lam: float, alpha: float, N: float, k: int) -> float:
    """Size of the log-gamma terms the package cancels in the log pmf at k.

    The package evaluates log Gamma(k + r) - log Gamma(r) directly, so its
    log pmf carries an absolute rounding error of a few ulps of this scale.
    """
    r = N**alpha
    return abs(math.lgamma(k + r)) + abs(math.lgamma(r)) + abs(k * math.log(r))


def _nb_params(lam: float, alpha: float, N: float) -> tuple[float, float, float]:
    """Pooled gamma shape r and log odds for exponential(lam) slot rates."""
    r = N**alpha
    t = (1.0 - alpha) * math.log(N)
    denom = math.log(lam + math.exp(t))
    return r, t - denom, math.log(lam) - denom


@functools.cache
def log_nb_point(lam: float, alpha: float, N: float, k: int) -> float:
    """log P(count = k) when the pooled rate of N^alpha exp(lam) slots is gamma."""
    r, log_q, log_1mq = _nb_params(lam, alpha, N)
    return _log_nb_pmf(r, log_q, log_1mq, k)


@functools.cache
def log_nb_tail(lam: float, alpha: float, N: float, k0: int) -> float:
    """log P(count >= k0) for the same negative binomial, by direct summation."""
    if k0 == 0:
        return 0.0
    r, log_q, log_1mq = _nb_params(lam, alpha, N)
    q = math.exp(log_q)
    terms = [1.0]  # pmf(k) / pmf(k0)
    total = 1.0
    k = k0
    # past the mode the terms decrease; stop once they are negligible
    while not (len(terms) > 1 and terms[-1] < terms[-2] and terms[-1] < 1e-18 * total):
        terms.append(terms[-1] * q * (k + r) / (k + 1.0))
        total += terms[-1]
        k += 1
    return _log_nb_pmf(r, log_q, log_1mq, k0) + math.log(math.fsum(terms))


def log_is_slow_second_moment(lam: float, alpha: float, a: float, N: float) -> float:
    """log E[w^2] per run of the slow-regime importance sampler on
    exponential(lam) slot rates pooled into one gamma draw.

    The sampler twists the pooled rate X ~ Gamma(n, lam), n = N^alpha, by
    theta = lam - 1/a and weights a run by L = (lam a)^n exp(-theta X) on
    the event; E_twisted[L^2 1] = E[L 1] = (lam a)^n (lam / (lam + theta))^n
    times the same negative binomial tail with rate lam + theta.
    """
    theta = lam - 1.0 / a
    n = N**alpha
    return (n * math.log(lam * a) + n * math.log(lam / (lam + theta))
            + log_nb_tail(lam + theta, alpha, N, round(N * a)))


def poisson_tail(k: int, mean: float, upper: bool) -> float:
    """P(X >= k) if ``upper`` else P(X <= k), for X Poisson(mean), summed
    outward from k until the terms are negligible."""
    term, total, j = 1.0, 1.0, k  # terms relative to P(X = k)
    if upper:
        while j < mean or term > 1e-18 * total:
            j += 1
            term *= mean / j
            total += term
    else:
        while j > 0 and (j > mean or term > 1e-18 * total):
            term *= j / mean
            j -= 1
            total += term
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0)) * total


@functools.cache
def per_slot_tail(dist: str, slots: int, N: float, k: int) -> float:
    """P(count >= k) when slots i.i.d. rates are pooled per slot (no gamma form).

    The count is Poisson with mean N * S / slots given the slot-rate sum S.
    For pois:<lam> slots, S is Poisson(slots * lam); for twopoint:<p>,<l1>,<l2>
    slots, S = l1 * slots + (l2 - l1) * B with B binomial(slots, 1 - p).
    """
    kind, _, args = dist.partition(":")
    weighted = []  # (log P(S = s), s)
    if kind == "pois":
        m = slots * float(args)
        s = 0
        while True:
            log_ps = s * math.log(m) - m - math.lgamma(s + 1.0)
            weighted.append((log_ps, float(s)))
            if s > m and log_ps < -60.0:
                break
            s += 1
    elif kind == "twopoint":
        p, l1, l2 = (float(v) for v in args.split(","))
        for b in range(slots + 1):
            log_pb = (math.lgamma(slots + 1.0) - math.lgamma(b + 1.0) - math.lgamma(slots - b + 1.0)
                      + b * math.log1p(-p) + (slots - b) * math.log(p))
            weighted.append((log_pb, l1 * slots + (l2 - l1) * b))
    else:
        raise ValueError(f"no per-slot oracle for {dist!r}")
    return math.fsum(
        math.exp(log_ps) * poisson_tail(k, N * s / slots, upper=True) if s > 0 else 0.0
        for log_ps, s in weighted
    )


def service_mean_retention(kind: str, E: float) -> float:
    """Closed-form integral of the service survival function over [0, 1]."""
    if kind == "exp":
        return E * -math.expm1(-1.0 / E)
    if kind == "det":
        return min(E, 1.0)
    if kind == "pareto":
        return E * (1.0 - 1.0 / (1.0 + 1.0 / E))
    raise ValueError(kind)
