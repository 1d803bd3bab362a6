"""Monte Carlo estimators: crude, and the two importance-sampling schemes.

Streams are counter-based (Philox keyed on (base_seed, shard_index)), so
shard independence is structural and results are reproducible bit-for-bit
for a fixed seed and shard layout.  All weights are handled in log space;
a valid configuration can never produce a non-finite weight.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, DomainError, InfeasibleTargetError, RegimeWarning
from .poisson_ldp import ceil_count, exact_count
from .rates import GammaRate, RateDistribution, rate_function

__all__ = [
    "Z_95",
    "DEFAULT_OP_BUDGET",
    "StreamPartition",
    "EstimatorResult",
    "EstimatorConfig",
    "pool_results",
    "mc_P",
    "is_fast",
    "is_slow",
    "efficiency_diagnostic",
]

Z_95 = 1.959964  # standard normal 97.5% quantile, fixed CI level
DEFAULT_OP_BUDGET = 4_000_000_000  # scalar draws allowed per estimator call
_CHUNK_SCALARS = 4_000_000


@dataclass(frozen=True)
class StreamPartition:
    """Addresses the random streams of one estimator invocation.

    Shard ``i`` draws from Philox keyed on (base_seed, i); with
    ``shard_index`` set, only that single shard of the layout is executed
    (used to run shards separately and merge them later).
    """

    base_seed: int
    shard_count: int = 1
    shard_index: int | None = None

    def __post_init__(self) -> None:
        if not (0 <= self.base_seed < 2**64):
            raise DomainError("base_seed must fit in 64 unsigned bits")
        if self.shard_count < 1:
            raise DomainError("shard_count must be positive")
        if self.shard_index is not None and not (0 <= self.shard_index < self.shard_count):
            raise DomainError("shard_index out of range")

    def generator(self, shard_index: int) -> np.random.Generator:
        key = np.array([self.base_seed, shard_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def layout(self, runs: int) -> list[tuple[int, int]]:
        """(shard_index, runs) pairs; earlier shards absorb the remainder."""
        base, extra = divmod(runs, self.shard_count)
        full = [(s, base + (1 if s < extra else 0)) for s in range(self.shard_count)]
        if self.shard_index is None:
            return [(s, r) for s, r in full if r > 0]
        s = self.shard_index
        return [(s, full[s][1])] if full[s][1] > 0 else []


@dataclass(frozen=True)
class EstimatorResult:
    """Point estimate with sampling noise summary.

    ``second_moment`` is the mean of the squared per-run weights; the private
    running sums make pooling of separately executed shards exact.
    """

    estimate: float
    sample_variance: float
    runs: int
    ci_halfwidth_95: float
    second_moment: float
    base_seed: int
    _sum_w: float = field(default=0.0, repr=False)
    _sum_w2: float = field(default=0.0, repr=False)

    @property
    def relative_ci(self) -> float:
        return self.ci_halfwidth_95 / self.estimate if self.estimate > 0.0 else math.inf


def _finalize(n: int, sum_w: float, sum_w2: float, base_seed: int) -> EstimatorResult:
    mean = sum_w / n
    second = sum_w2 / n
    var = (sum_w2 - n * mean * mean) / (n - 1) if n > 1 else 0.0
    var = max(var, 0.0)
    return EstimatorResult(
        estimate=mean,
        sample_variance=var,
        runs=n,
        ci_halfwidth_95=Z_95 * math.sqrt(var / n),
        second_moment=second,
        base_seed=base_seed,
        _sum_w=sum_w,
        _sum_w2=sum_w2,
    )


def pool_results(results: list[EstimatorResult]) -> EstimatorResult:
    """Merge shard results (fixed order) into one pooled estimate."""
    if not results:
        raise DomainError("nothing to pool")
    n = sum(r.runs for r in results)
    sum_w = 0.0
    sum_w2 = 0.0
    for r in results:
        sum_w += r._sum_w
        sum_w2 += r._sum_w2
    return _finalize(n, sum_w, sum_w2, results[0].base_seed)


def _run_chunked(
    partition: StreamPartition, runs: int, scalars_per_run: int, op_budget: int, weights
) -> EstimatorResult:
    """The estimator driver: checks the draw budget, then runs
    ``weights(rng, m) -> m per-run weights`` over the shards in chunks of
    about _CHUNK_SCALARS scalar draws."""
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    total = runs * scalars_per_run
    if total > op_budget:
        raise BudgetError(
            f"{runs} runs x {scalars_per_run} draws/run = {total} scalar draws "
            f"exceed the operation budget {op_budget}; raise op_budget to allow this"
        )
    rows = max(1, _CHUNK_SCALARS // scalars_per_run)
    shard_results = []
    for shard_index, shard_runs in partition.layout(runs):
        rng = partition.generator(shard_index)
        done = 0
        sum_w = 0.0
        sum_w2 = 0.0
        while done < shard_runs:
            m = min(rows, shard_runs - done)
            w = weights(rng, m)
            sum_w += float(w.sum())
            sum_w2 += float((w * w).sum())
            done += m
        shard_results.append(_finalize(shard_runs, sum_w, sum_w2, partition.base_seed))
    return pool_results(shard_results)


def _slot_sampler(dist: RateDistribution, alpha: float, N: float, theta: float | None = None):
    """Sampler of the pooled rate sum over the N^alpha slots.

    Returns (draw(rng, m) -> pooled sums, slot_count, scalars_per_run).
    Gamma kinds (exponential included) pool into a single gamma draw with
    real shape N^alpha * beta; other kinds draw round(N^alpha) i.i.d. slots.
    Every estimator checks alpha and N here.
    """
    if not (alpha > 0.0 and N > 0.0):
        raise DomainError(f"alpha and N must be positive, got alpha={alpha}, N={N}")
    n_alpha = math.exp(alpha * math.log(N))
    if isinstance(dist, GammaRate):
        lam = dist.lam if theta is None else dist.lam - theta
        shape = n_alpha * dist.beta

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            return rng.gamma(shape, 1.0 / lam, size=m)

        return draw, n_alpha, 1

    slots = max(1, round(n_alpha))

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        if theta is None:
            x = dist.sample(rng, m * slots)
        else:
            x = dist.sample_twisted(theta, rng, m * slots)
        return x.reshape(m, slots).sum(axis=1)

    return draw, float(slots), slots


def mc_P(
    dist: RateDistribution,
    alpha: float,
    a: float,
    N: float,
    runs: int,
    partition: StreamPartition,
    op_budget: int = DEFAULT_OP_BUDGET,
) -> EstimatorResult:
    """Crude Monte Carlo for the overflow probability P(count >= N*a)."""
    draw, slot_count, scalars = _slot_sampler(dist, alpha, N)
    k = ceil_count(N * a)

    def weights(rng: np.random.Generator, m: int) -> np.ndarray:
        pooled = draw(rng, m)
        z = rng.poisson(N * pooled / slot_count)
        return (z >= k).astype(np.float64)

    return _run_chunked(partition, runs, scalars + 1, op_budget, weights)


def is_fast(
    dist: RateDistribution,
    alpha: float,
    a: float,
    N: float,
    runs: int,
    partition: StreamPartition,
    quantity: str = "tail",
    K: int | None = None,
    op_budget: int = DEFAULT_OP_BUDGET,
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

    return _run_chunked(partition, runs, scalars + len(levels), op_budget, weights)


def is_slow(
    dist: RateDistribution,
    alpha: float,
    a: float,
    N: float,
    runs: int,
    partition: StreamPartition,
    op_budget: int = DEFAULT_OP_BUDGET,
) -> EstimatorResult:
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
    theta_a = rate_function(dist, a).theta_star
    cgf_at_twist = float(dist.cgf(theta_a)[0])
    draw, slot_count, scalars = _slot_sampler(dist, alpha, N, theta=theta_a)
    k = ceil_count(N * a)

    def weights(rng: np.random.Generator, m: int) -> np.ndarray:
        pooled = draw(rng, m)
        z = rng.poisson(N * pooled / slot_count)
        log_l = slot_count * cgf_at_twist - theta_a * pooled
        return np.exp(log_l) * (z >= k)

    return _run_chunked(partition, runs, scalars + 1, op_budget, weights)


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator selection for the efficiency diagnostic and ``mixpois simulate``."""

    method: str  # "mc" | "is-fast" | "is-slow"
    dist: RateDistribution
    alpha: float
    a: float
    runs: int
    quantity: str = "tail"
    base_seed: int = 0
    shards: int = 1

    def run(self, N: float) -> EstimatorResult:
        if self.quantity != "tail" and self.method != "is-fast":
            raise DomainError(f"{self.method} estimates only the tail, not the {self.quantity}")
        partition = StreamPartition(self.base_seed, self.shards)
        if self.method == "mc":
            return mc_P(self.dist, self.alpha, self.a, N, self.runs, partition)
        if self.method == "is-fast":
            return is_fast(self.dist, self.alpha, self.a, N, self.runs, partition,
                           quantity=self.quantity)
        if self.method == "is-slow":
            return is_slow(self.dist, self.alpha, self.a, N, self.runs, partition)
        raise DomainError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class EfficiencyRow:
    N: float
    second_moment_rate: float  # log E[w^2 1] / N^gamma
    estimate_rate: float       # 2 log estimate / N^gamma
    ratio: float               # first over second; -> 1 for efficient schemes


@dataclass(frozen=True)
class EfficiencyDiagnostic:
    rows: tuple[EfficiencyRow, ...]
    final_ratio: float
    passed: bool


def efficiency_diagnostic(config: EstimatorConfig, N_grid: list[float]) -> EfficiencyDiagnostic:
    """Empirical second-moment decay check along an increasing N grid.

    An asymptotically efficient estimator has its second moment decaying at
    twice the rate of the probability itself, so the ratio of the two log
    columns approaches 1 from below; the diagnostic passes when the final
    grid point reaches 0.9.
    """
    if len(N_grid) < 3 or any(b <= a for a, b in zip(N_grid, N_grid[1:])):
        raise DomainError("N_grid must be increasing with at least 3 points")
    gamma = min(config.alpha, 1.0)
    rows = []
    for N in N_grid:
        res = config.run(N)
        scale = N**gamma
        if res.estimate > 0.0 and res.second_moment > 0.0:
            m2_rate = math.log(res.second_moment) / scale
            est_rate = 2.0 * math.log(res.estimate) / scale
            ratio = m2_rate / est_rate
        else:
            m2_rate = est_rate = ratio = math.nan
        rows.append(EfficiencyRow(N, m2_rate, est_rate, ratio))
    final_ratio = rows[-1].ratio
    return EfficiencyDiagnostic(
        rows=tuple(rows),
        final_ratio=final_ratio,
        passed=bool(final_ratio >= 0.9),
    )
