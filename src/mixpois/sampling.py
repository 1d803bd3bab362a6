"""Monte Carlo estimators: crude, and the two importance-sampling schemes.

Each estimator call draws from one counter-based stream, Philox keyed on
(seed, 0), so results are reproducible bit-for-bit for a fixed seed and the
streams of distinct seeds are independent by construction.  All weights are
handled in log space; a valid configuration can never produce a non-finite
weight.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, InfeasibleTargetError, RegimeWarning
from .numerics import exp_or_inf
from .poisson_ldp import ceil_count, exact_count
from .rates import GammaRate, RateDistribution, rate_function

__all__ = [
    "Z_95",
    "stream",
    "EstimatorResult",
    "mc_P",
    "is_fast",
    "is_slow",
]

Z_95 = 1.959964  # standard normal 97.5% quantile, fixed CI level
_OP_BUDGET = 4_000_000_000  # scalar draws allowed per estimator call
_CHUNK_SCALARS = 4_000_000
# slot draws per block: 125 KiB of float64 stays in cache and under malloc's
# 128 KiB mmap threshold, so the blocks reuse heap memory; 1 MiB blocks were
# returned to the system and faulted in afresh, and the fig 4 cells took 13
# times the page faults of whole chunks
_BLOCK_SCALARS = 16_000
_POISSON_MEAN_MAX = 9.2e18  # numpy's Poisson sampler refuses means above about 9.22e18


def stream(seed: int) -> np.random.Generator:
    """The random stream of one estimator call: Philox keyed on (seed, 0)."""
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
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

    @property
    def relative_ci(self) -> float:
        return self.ci_halfwidth_95 / self.estimate if self.estimate > 0.0 else math.inf


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


def _slot_reduce(sample, rng: np.random.Generator, m: int, width: int, reduce) -> np.ndarray:
    """m per-run values, each ``reduce`` of the run's row of ``width`` slot
    draws from ``sample(rng, n)``.

    The rows are drawn and reduced in blocks of a multiple of 64 rows, at
    most _BLOCK_SCALARS draws unless 64 rows hold more, so no chunk-sized
    array of draws is ever held.  The
    stream hands out the same draws as one call of m * width would, and
    whole multiples of 64 rows keep the BLAS product's grouping of rows, so
    each value is the one a single-threaded product over the whole chunk
    gives, to the bit.
    """
    out = np.empty(m)
    rows = max(1, _BLOCK_SCALARS // (64 * width)) * 64
    for lo in range(0, m, rows):
        n = min(rows, m - lo)
        out[lo:lo + n] = reduce(sample(rng, n * width).reshape(n, width))
    return out


def _count_mean(mean):
    """``mean``, refused if numpy's Poisson sampler cannot draw from it."""
    if not np.all(mean <= _POISSON_MEAN_MAX):
        raise DomainError(f"a Poisson count mean of {np.max(mean):.6g} exceeds the "
                          f"sampler's limit of {_POISSON_MEAN_MAX:.3g}")
    return mean


def _slot_sampler(dist: RateDistribution, alpha: float, N: float, theta: float | None = None):
    """Sampler of the pooled rate sum over the N^alpha slots.

    Returns (draw(rng, m) -> pooled sums, slot_count, scalars_per_run).
    Gamma kinds (exponential included) pool into a single gamma draw with
    real shape N^alpha * beta; other kinds draw round(N^alpha) i.i.d. slots.
    Every estimator checks alpha and N, and that N^alpha and the pooled
    gamma shape are floats, here.
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

        return draw, n_alpha, 1

    slots = max(1, round(n_alpha))
    sample = dist.sample if theta is None else functools.partial(dist.sample_twisted, theta)

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        return _slot_reduce(sample, rng, m, slots, lambda x: x.sum(axis=1))

    return draw, float(slots), slots


def _tail_at_tilt(dist: RateDistribution, alpha: float, a: float, N: float, runs: int,
                  seed: int, theta: float | None) -> EstimatorResult:
    """The overflow probability P(count >= N*a) with the slot rates drawn
    exponentially twisted by ``theta`` and each run weighed by its likelihood
    ratio times the overflow indicator.  Crude Monte Carlo is the untilted
    case, ``theta=None``, where every run weighs its indicator alone."""
    cgf_at_twist = None if theta is None else float(dist.cgf(theta)[0])
    draw, slot_count, scalars = _slot_sampler(dist, alpha, N, theta=theta)
    k = ceil_count(N * a)

    def weights(rng: np.random.Generator, m: int) -> np.ndarray:
        pooled = draw(rng, m)
        hit = rng.poisson(_count_mean(N * pooled / slot_count)) >= k
        if theta is None:
            return hit.astype(np.float64)
        return np.exp(slot_count * cgf_at_twist - theta * pooled) * hit

    return _run_chunked(seed, runs, scalars + 1, weights)


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
    K: int | None = None,
) -> EstimatorResult:
    """Importance sampling tuned for fast resampling.

    The Poisson count is proposed with mean N*a and reweighted by the pmf
    ratio against the actually drawn pooled rate; ``quantity`` selects the
    point mass ("point"), the tail ("tail"), or the tail assembled from the
    point masses at counts k0..K ("tail_by_sum").  There each run draws one
    pooled rate and one count per level j, proposed with mean j, and its
    weight is the sum over the levels, so the reported variance includes
    their covariance.
    """
    if quantity not in ("point", "tail", "tail_by_sum"):
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

    draw, slot_count, scalars = _slot_sampler(dist, alpha, N)
    if quantity == "tail_by_sum":
        if K is None:
            raise DomainError("tail_by_sum needs the cutoff count K")
        k0 = ceil_count(N * a)
        if K < k0:
            raise DomainError(f"cutoff K={K} is below the threshold count {k0}")
        counts = range(k0, K + 1)
        levels = [j / N for j in counts]
    else:
        counts = [exact_count(N * a) if quantity == "point" else ceil_count(N * a)]
        levels = [a]
    _count_mean(N * levels[-1])  # the largest proposal mean, checked before any draw

    def weights(rng: np.random.Generator, m: int) -> np.ndarray:
        xbar = draw(rng, m) / slot_count

        def at_level(level: float, count: int) -> np.ndarray:
            z = rng.poisson(N * level, size=m)
            with np.errstate(divide="ignore", invalid="ignore"):
                logw = z * np.log(xbar / level) + N * (level - xbar)
            logw = np.where(xbar > 0.0, logw, -np.inf)  # empty pooled rate: no mass at z >= 1
            hit = (z >= count) if quantity == "tail" else (z == count)
            return np.exp(logw) * hit

        return functools.reduce(np.add, map(at_level, levels, counts))

    return _run_chunked(seed, runs, scalars + len(levels), weights)


def is_slow(dist: RateDistribution, alpha: float, a: float, N: float, runs: int,
            seed: int) -> EstimatorResult:
    """Importance sampling tuned for slow resampling.

    The slot rates are drawn exponentially twisted so their mean becomes a;
    each run is reweighted by the product likelihood ratio and scored on the
    overflow indicator.
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
