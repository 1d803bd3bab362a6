"""Monte Carlo estimators: crude, and the two importance-sampling schemes.

Each estimator call draws from one counter-based stream, Philox keyed on
(seed, 0), so results are reproducible bit-for-bit for a fixed seed and the
streams of distinct seeds are independent by construction.  All weights are
handled in log space; a valid configuration can never produce a non-finite
weight.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, InfeasibleTargetError, RegimeWarning
from .numerics import ceil_count, exact_count, exp_or_inf
from .rates import GammaRate, PoissonRate, RateDistribution, TwoPoint, rate_function

__all__ = [
    "Z_95",
    "check_seed",
    "stream",
    "EstimatorResult",
    "mc_P",
    "is_fast",
    "is_slow",
]

Z_95 = 1.959964  # standard normal 97.5% quantile, fixed CI level
_OP_BUDGET = 4_000_000_000  # scalar draws allowed per estimator call
_CHUNK_SCALARS = 4_000_000
_POISSON_MEAN_MAX = 9.2e18  # numpy's Poisson sampler refuses means above about 9.22e18
_BINOMIAL_COUNT_MAX = 2**63 - 1  # numpy's binomial sampler takes counts up to the int64 range


def check_seed(seed: int) -> None:
    """Refuse a seed that cannot key a stream, one outside [0, 2^64)."""
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")


def stream(seed: int) -> np.random.Generator:
    """The random stream of one estimator call: Philox keyed on (seed, 0)."""
    check_seed(seed)
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


@dataclass(frozen=True)
class EstimatorResult:
    """Point estimate with sampling noise summary; ``second_moment`` is the
    mean of the squared per-run weights."""

    estimate: float
    sample_variance: float
    runs: int
    ci_halfwidth_95: float
    second_moment: float


def _finalize(n: int, sum_w: float, sum_w2: float) -> EstimatorResult:
    mean = sum_w / n
    var = (sum_w2 - n * mean * mean) / (n - 1) if n > 1 else 0.0
    var = max(var, 0.0)
    return EstimatorResult(
        estimate=mean,
        sample_variance=var,
        runs=n,
        ci_halfwidth_95=Z_95 * math.sqrt(var / n),
        second_moment=sum_w2 / n,
    )


def _run_chunked(seed: int, runs: int, scalars_per_run: int, weights) -> EstimatorResult:
    """The estimator driver: checks the draw budget and that one run fits in
    a chunk, then runs ``weights(rng, m) -> m per-run weights`` on the stream
    of ``seed`` in chunks of at most _CHUNK_SCALARS scalar draws."""
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    total = runs * scalars_per_run
    if total > _OP_BUDGET:
        raise BudgetError(
            f"{runs} runs x {scalars_per_run} draws/run = {total} scalar draws "
            f"exceed the operation budget {_OP_BUDGET}"
        )
    if scalars_per_run > _CHUNK_SCALARS:
        raise BudgetError(
            f"one run draws {scalars_per_run} scalars, above the per-run cap of "
            f"{_CHUNK_SCALARS}"
        )
    rng = stream(seed)
    rows = _CHUNK_SCALARS // scalars_per_run
    sum_w = sum_w2 = 0.0
    for done in range(0, runs, rows):
        w = weights(rng, min(rows, runs - done))
        sum_w += float(w.sum())
        sum_w2 += float((w * w).sum())
    return _finalize(runs, sum_w, sum_w2)


def _count_mean(mean):
    """``mean``, refused if numpy's Poisson sampler cannot draw from it."""
    if not np.all(mean <= _POISSON_MEAN_MAX):
        raise DomainError(f"a Poisson count mean of {np.max(mean):.6g} exceeds the "
                          f"sampler's limit of {_POISSON_MEAN_MAX:.3g}")
    return mean


def _slot_sampler(dist: RateDistribution, alpha: float, N: float, theta: float | None = None):
    """Sampler of the rate sum over the N^alpha slots, one pooled draw per
    run, twisted by ``theta`` if given.

    Returns (draw(rng, m) -> pooled sums, slot_count).  Gamma kinds
    (exponential included) draw one gamma of real shape N^alpha * beta.  The
    other kinds sum n = round(N^alpha) slots: Poisson rates as one Poisson
    draw of mean n * lam * e^theta, two-point rates as n * lam1 plus
    (lam2 - lam1) times a Bin(n, q) count of slots at lam2, q their twisted
    weight, and deterministic rates as n * lam, with no draw.
    Every estimator checks alpha and N, that N^alpha and the pooled gamma
    shape are floats and that numpy can draw the pooled Poisson mean and the
    binomial count, here.
    """
    if not (alpha > 0.0 and N > 0.0):
        raise DomainError(f"alpha and N must be positive, got alpha={alpha}, N={N}")
    n_alpha = exp_or_inf(alpha * math.log(N))
    if n_alpha == math.inf:
        raise DomainError(f"N^alpha exceeds the float range at alpha={alpha}, N={N}")
    if isinstance(dist, GammaRate):
        lam = dist.lam if theta is None else dist.lam - theta
        shape = n_alpha * dist.beta
        if shape == math.inf:
            raise DomainError(f"the pooled gamma shape N^alpha*beta exceeds the float range "
                              f"at alpha={alpha}, N={N}, beta={dist.beta}")

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            return rng.gamma(shape, 1.0 / lam, size=m)

        return draw, n_alpha

    slots = max(1, round(n_alpha))
    if isinstance(dist, PoissonRate):
        mean = _count_mean(slots * (dist.lam if theta is None else dist.lam * math.exp(theta)))

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            return rng.poisson(mean, size=m).astype(np.float64)

    elif isinstance(dist, TwoPoint):
        if slots > _BINOMIAL_COUNT_MAX:
            raise DomainError(f"N^alpha = {n_alpha:.6g} two-point slots exceed the binomial "
                              f"sampler's limit of 2^63 - 1")
        low, spread = slots * dist.lam1, dist.lam2 - dist.lam1
        q = 1.0 - dist.p if theta is None else dist._twisted_q(theta)

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            return low + spread * rng.binomial(slots, q, size=m)

    else:  # deterministic rates
        total = slots * dist.lam

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            return np.full(m, total)

    return draw, float(slots)


def _tail_at_tilt(dist: RateDistribution, alpha: float, a: float, N: float, runs: int,
                  seed: int, theta: float | None) -> EstimatorResult:
    """The overflow probability P(count >= N*a) with the slot rates
    exponentially twisted by ``theta``: each run draws their pooled sum S and
    the count, and weighs the overflow indicator by the likelihood ratio
    exp(slot_count * CGF(theta) - theta * S).  Crude Monte Carlo is the
    untilted case, ``theta=None``, where every run weighs its indicator alone."""
    cgf_at_twist = None if theta is None else float(dist.cgf(theta)[0])
    draw, slot_count = _slot_sampler(dist, alpha, N, theta=theta)
    k = ceil_count(N * a)

    def weights(rng: np.random.Generator, m: int) -> np.ndarray:
        pooled = draw(rng, m)
        hit = rng.poisson(_count_mean(N * pooled / slot_count)) >= k
        if theta is None:
            return hit.astype(np.float64)
        return np.exp(slot_count * cgf_at_twist - theta * pooled) * hit

    return _run_chunked(seed, runs, 2, weights)


def mc_P(dist: RateDistribution, alpha: float, a: float, N: float, runs: int,
         seed: int) -> EstimatorResult:
    """Crude Monte Carlo for the overflow probability P(count >= N*a)."""
    return _tail_at_tilt(dist, alpha, a, N, runs, seed, None)


def is_fast(
    dist: RateDistribution,
    alpha: float,
    a: float,
    N: float,
    runs: int,
    seed: int,
    quantity: str = "tail",
) -> EstimatorResult:
    """Importance sampling tuned for fast resampling.

    The Poisson count is proposed with mean N*a and reweighted by the pmf
    ratio against the actually drawn pooled rate; ``quantity`` selects the
    point mass ("point") or the tail ("tail").
    """
    if quantity not in ("point", "tail"):
        raise DomainError(f"unknown quantity {quantity!r}")
    if alpha <= 1.0:
        warnings.warn(
            f"fast-regime estimator used at alpha={alpha} <= 1; it stays unbiased "
            "but its efficiency guarantee does not apply",
            RegimeWarning,
            stacklevel=2,
        )
    if a < dist.mean:
        raise DomainError(f"target a={a} is below the mean {dist.mean}")

    draw, slot_count = _slot_sampler(dist, alpha, N)
    count = exact_count(N * a) if quantity == "point" else ceil_count(N * a)
    proposal_mean = _count_mean(N * a)  # checked before any draw

    def weights(rng: np.random.Generator, m: int) -> np.ndarray:
        xbar = draw(rng, m) / slot_count
        z = rng.poisson(proposal_mean, size=m)
        # at an empty pooled rate the ratio is e^(N a) at z = 0 and 0 above
        with np.errstate(divide="ignore", invalid="ignore"):
            logw = np.where(z > 0, z * np.log(xbar / a), 0.0) + N * (a - xbar)
        hit = (z >= count) if quantity == "tail" else (z == count)
        return np.exp(logw) * hit

    return _run_chunked(seed, runs, 2, weights)


def is_slow(dist: RateDistribution, alpha: float, a: float, N: float, runs: int,
            seed: int) -> EstimatorResult:
    """Importance sampling tuned for slow resampling.

    The slot rates are exponentially twisted so their mean becomes a; each
    run draws their pooled sum under the twist, is reweighted by the product
    likelihood ratio, a function of that sum, and is scored on the overflow
    indicator.
    """
    if alpha >= 1.0:
        warnings.warn(
            f"slow-regime estimator used at alpha={alpha} >= 1; it stays unbiased "
            "but its efficiency guarantee does not apply",
            RegimeWarning,
            stacklevel=2,
        )
    if not a > dist.mean:
        raise DomainError(f"twist target must exceed the mean {dist.mean}, got a={a}")
    if not a < dist.support_sup:
        raise InfeasibleTargetError(
            f"twist target a={a} is not below the support supremum {dist.support_sup}"
        )
    return _tail_at_tilt(dist, alpha, a, N, runs, seed, rate_function(dist, a).theta_star)
