"""Monte Carlo estimators: crude, and the two importance-sampling schemes,
and the draw layer they share with the occupancy sampler ``queue.mc_Q``.

Each estimator call draws from one counter-based stream, Philox keyed on
(seed, 0), so results are reproducible bit-for-bit for a fixed seed and the
streams of distinct seeds are independent by construction.  All weights are
handled in log space; a valid configuration can never produce a non-finite
weight.

Every estimator, queue.mc_Q included, runs through one driver
(_run_blocks), which draws, scores and sums its runs block by block: each
block's weights are folded into their sum and sum of squares, all the mean
and the CI need, before the next is drawn, so an estimator's memory does not
grow with its runs.  A pooled Poisson or binomial slot count is one raw word
read through an alias table (_alias_sampler) built once per call, and a hit
of a Poisson count of per-run mean L at k is decided as G <= L for
G ~ Gamma(k, 1), the k-th epoch of a unit-rate Poisson process, since
P(Pois(L) >= k) = P(G <= L).  With gamma slot rates the overflow count
itself, negative binomial, is one raw word through the table of its law
(_negbin_law), and only the hit runs of is_slow draw their pooled rate,
from its law given the count.  numpy's Poisson, binomial and gamma samplers
remain for is_fast's proposal and for counts whose table would pass
2^_TABLE_BITS_MAX entries.
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
_RUN_SCALARS_CAP = 4_000_000  # scalar draws allowed per run
# scalar draws per block of runs: 125 KiB of float64 stays in cache and under
# malloc's 128 KiB mmap threshold, so the blocks reuse heap memory; 1 MiB
# blocks were returned to the system and faulted in afresh, and the fig 4
# cells took 13 times the page faults of 4e6-scalar chunks
_BLOCK_SCALARS = 16_000
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


def _run_blocks(seed: int, runs: int, scalars_per_run: int, sampler) -> EstimatorResult:
    """The estimator driver: checks the draw budget and that one run stays
    under the per-run cap, then builds ``sampler() -> (width, block)`` and
    runs ``block(rng, n) -> n per-run weights`` on the stream of ``seed``, on
    blocks of runs of ``width`` draws each, at most _BLOCK_SCALARS unless one
    run holds more.  Each block's weights are folded into their sum and sum
    of squares before the next block is drawn, so no array grows with
    ``runs``."""
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    total = runs * scalars_per_run
    if total > _OP_BUDGET:
        raise BudgetError(
            f"{runs} runs x {scalars_per_run} draws/run = {total} scalar draws "
            f"exceed the operation budget {_OP_BUDGET}"
        )
    if scalars_per_run > _RUN_SCALARS_CAP:
        raise BudgetError(
            f"one run draws {scalars_per_run} scalars, above the per-run cap of "
            f"{_RUN_SCALARS_CAP}"
        )
    width, block = sampler()
    rng = stream(seed)
    rows = max(1, _BLOCK_SCALARS // width)
    sum_w = sum_w2 = 0.0
    for done in range(0, runs, rows):
        w = block(rng, min(rows, runs - done))
        sum_w += float(np.add.reduce(w))
        sum_w2 += float(np.add.reduce(w * w))
    return _finalize(runs, sum_w, sum_w2)


def _count_mean(mean):
    """``mean``, refused if numpy's Poisson sampler cannot draw from it."""
    if not np.all(mean <= _POISSON_MEAN_MAX):
        raise DomainError(f"a Poisson count mean of {np.max(mean):.6g} exceeds the "
                          f"sampler's limit of {_POISSON_MEAN_MAX:.3g}")
    return mean


# Alias tables (Walker, ACM TOMS 3 (1977) 253; Vose, IEEE TSE 17 (1991) 972)
# hold integer weights summing to 2^_WEIGHT_BITS, in at most 2^_TABLE_BITS_MAX
# entries; a Poisson table ends where its law's upper tail falls below
# _TABLE_TAIL.  The weights leave 64 - _WEIGHT_BITS bits of each raw word
# unused, so that the running sums of up to 63 tables fit side by side in
# one int64 search (_alias_tables); a sampler builds at most y0 + 1 of them
# (queue._marked_occupancy).
_WEIGHT_BITS = 56
_TABLE_BITS_MAX = 12
_TABLE_TAIL = 2.0**-60


def _poisson_span(mean):
    """The last count of the pmf of a Poisson count of ``mean`` that
    _poisson_ratios forms: mean + 12 sqrt(mean) + 32, rounded up, and at most
    2^_TABLE_BITS_MAX."""
    return np.minimum(2**_TABLE_BITS_MAX, np.ceil(mean + 12.0 * np.sqrt(mean)) + 32)


def _from_mode(up: np.ndarray, below: np.ndarray) -> np.ndarray:
    """A pmf along the last axis relative to its value at its mode, from the
    ratios up[v] = pmf(v) / pmf(v - 1) above the mode and below[v] =
    pmf(v) / pmf(v + 1) below it, each 1 elsewhere: every value is a product
    of ratios of at most 1, so it neither overflows nor loses digits to a
    log-factorial."""
    return np.cumprod(up, axis=-1) * np.cumprod(below[..., ::-1], axis=-1)[..., ::-1]


def _poisson_ratios(means: np.ndarray) -> np.ndarray:
    """[i, v]: the pmf of a Poisson count of mean means[i] at v, relative to
    its value at its mode m = floor(mean), as products of the ratios mean / v
    above m and v / mean below it, so it neither overflows nor loses digits
    to a log-factorial.  The counts v run to the span of the largest mean
    (_poisson_span)."""
    v = np.arange(int(_poisson_span(np.max(means))) + 1)
    mean = means[:, None]
    mode = np.floor(mean)
    # the ratios below the mode arise only at a mean of at least 1
    return _from_mode(np.where(v > mode, mean / np.maximum(v, 1), 1.0),
                      np.where(v < mode, (v + 1) / np.maximum(mean, 1.0), 1.0))


def _poisson_laws(means: np.ndarray) -> list[np.ndarray | None]:
    """The pmfs of Poisson counts of ``means`` (_poisson_ratios), each
    unnormalised and cut at the first count v above the mean with
    P(X >= v) < _TABLE_TAIL, or None where that cut lies past
    2^_TABLE_BITS_MAX counts (a mean above about 3560).

    The tail is bounded by the geometric series P(X >= v) <= pmf(v) (v + 1)
    / (v + 1 - mean).  The counts run past the cut of every mean whose cut
    lies within 2^_TABLE_BITS_MAX counts.
    """
    ratio = _poisson_ratios(means)
    v = np.arange(ratio.shape[1])
    mean = means[:, None]
    total = np.add.reduce(ratio, axis=1)[:, None]
    ends = (v + 1 > mean) & (ratio * (v + 1) < _TABLE_TAIL * total * (v + 1 - mean))
    return [row[:np.argmax(end)] if end.any() else None for row, end in zip(ratio, ends)]


def _alias_tables(laws: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Alias tables of ``laws``, each given by unnormalised probabilities of
    the values 0, 1, ..., as two int64 arrays of shape (len(laws), 2^bits):
    the thresholds and the aliases of the entries.

    Entry v of a table holds weight t_v of value v and 2^(_WEIGHT_BITS - bits)
    - t_v of its alias.  Each law's integer weights sum to 2^_WEIGHT_BITS:
    they are rounded cumulatively, so each is within one unit of its share,
    and the mode takes up the rounding of the law's normalisation, at most
    2^(_WEIGHT_BITS - 52) units; so each value's probability is within 2^-50
    of the law's.  The entries are filled by the sweep of Huebschle-Schneider
    and Sanders (Parallel weighted random sampling, ESA 2019): the entries
    over capacity, in order, give their excess to the entries under it, in
    order, each giving its last part with its own entry, so every entry is
    placed by one search in the running sums of deficit and excess.
    """
    bits = max(1, (max(law.size for law in laws) - 1).bit_length())
    size, capacity, total = 2**bits, 2**(_WEIGHT_BITS - bits), 2**_WEIGHT_BITS
    p = np.zeros((len(laws), size))
    for row, law in zip(p, laws):  # one table each
        row[:law.size] = law / math.fsum(law.tolist())
    x = p * float(total)
    whole = np.floor(x)
    cumulative = (np.cumsum(whole.astype(np.int64), axis=1)
                  + np.rint(np.cumsum(x - whole, axis=1)).astype(np.int64))
    weight = np.diff(cumulative, axis=1, prepend=0)
    weight[np.arange(len(laws)), np.argmax(weight, axis=1)] += total - cumulative[:, -1]

    light = weight <= capacity
    deficit = np.where(light, capacity - weight, 0)
    deficit_to = np.cumsum(deficit, axis=1)
    deficit_before = deficit_to - deficit
    excess_to = np.cumsum(np.where(light, 0, weight - capacity), axis=1)
    # the running sums of each table stay below 2^(_WEIGHT_BITS + 1): offset
    # by that much per table, one search serves all tables
    offset = (np.arange(len(laws)) << (_WEIGHT_BITS + 1))[:, None]
    excess_flat = (excess_to + offset).ravel()
    start = (np.arange(len(laws)) * size)[:, None]
    # a light entry's alias: the heavy entry whose running excess first passes
    # its running deficit; a heavy entry's: the next heavy entry
    alias = np.searchsorted(excess_flat, np.where(light, deficit_before, excess_to) + offset,
                            side="right").reshape(light.shape) - start
    # a heavy entry keeps what is left of its weight once the light entries
    # before its running excess have taken theirs
    taken = np.searchsorted((deficit_before + offset).ravel(), excess_to + offset, side="left")
    threshold = np.where(light, weight,
                         capacity + excess_to - deficit_to.ravel()[taken - 1])
    # a search past a table's last heavy entry, for an entry of full
    # threshold, whose alias is never read, lands in the next table
    return threshold, np.minimum(alias, size - 1)


def _alias_sampler(laws: list[np.ndarray]):
    """Sampler ``draw(raw, rows) -> values``: one value of the law of table
    ``rows`` (broadcast against ``raw``; None reads the first table)
    per raw uint64 word, whose top bits pick the entry and whose low
    _WEIGHT_BITS - bits bits are compared with its threshold (_alias_tables).
    The low bits are taken in place, so ``raw`` is overwritten."""
    threshold, alias = _alias_tables(laws)
    bits = threshold.shape[1].bit_length() - 1
    shift, low = np.uint64(64 - bits), np.uint64(2**(_WEIGHT_BITS - bits) - 1)
    threshold, alias = threshold.ravel(), alias.ravel()

    def draw(raw: np.ndarray, rows) -> np.ndarray:
        # as int64, whose indexing and comparisons need no conversion
        entry = (raw >> shift).view(np.int64)
        at = entry if rows is None else entry + (np.asarray(rows) << bits)
        np.bitwise_and(raw, low, out=raw)
        return np.where(raw.view(np.int64) < threshold[at], entry, alias[at])

    return draw


def _binomial_law(n: int, q: float) -> np.ndarray:
    """The pmf of Bin(n, q), unnormalised: taken relative to its mode
    m = floor((n + 1) q) as products of the ratios (n - v + 1) q / (v (1 - q))
    above m and of their inverses below it, so it neither overflows nor loses
    digits to a log-factorial, as in _poisson_laws."""
    v = np.arange(n + 1)
    mode = min(n, math.floor((n + 1) * q))
    # at q = 1 (a two-point weight p below 2^-53) the ratios above the mode
    # divide by zero, and are not used
    with np.errstate(divide="ignore", invalid="ignore"):
        up = np.where(v > mode, (n - v + 1) * q / (np.maximum(v, 1) * (1.0 - q)), 1.0)
        below = np.where(v < mode, (v + 1) * (1.0 - q) / ((n - v) * q), 1.0)
    return _from_mode(up, below)


def _negbin_law(shape: float, q: float) -> np.ndarray | None:
    """The pmf of the negative binomial count C of real shape ``shape`` and
    weight ``q``, P(C = v) proportional to Gamma(shape + v) / v! q^v,
    unnormalised: relative to its mode m = floor((shape - 1) q / (1 - q)) as
    products of the ratios (shape + v - 1) q / v above m and of their
    inverses below it (_from_mode), as in _poisson_ratios.

    The law is cut at the first count v above its mean shape q / (1 - q)
    whose Chernoff bound P(C >= v) <= exp(-I(v)), at the optimal tilt,
    falls below _TABLE_TAIL:
    I(v) = v log(v / (q (shape + v))) + shape log(shape / ((1 - q) (shape + v))),
    which increases above the mean, so the cut is found by bisection.  It is
    None, decided before any array is formed, where q is not inside (0, 1),
    the mean is not finite or the cut passes 2^_TABLE_BITS_MAX counts.
    """
    if not 0.0 < q < 1.0:
        return None
    odds = q / (1.0 - q)
    mean, size = shape * odds, 2**_TABLE_BITS_MAX
    log_q, log_p = math.log(q), math.log1p(-q)

    def beyond(v: int) -> bool:  # whether the bound on P(C >= v) is below _TABLE_TAIL
        # log((shape + v) / shape), apart where v / shape passes the float range
        ratio = v / shape
        log_ratio = math.log1p(ratio) if ratio < math.inf else math.log(v) - math.log(shape)
        rate = -v * (math.log1p(shape / v) + log_q) - shape * (log_ratio + log_p)
        return rate > -math.log(_TABLE_TAIL)

    if not (mean < size and beyond(size)):
        return None
    short, cut = math.floor(mean), size  # a count short of the cut, and one at or past it
    while cut - short > 1:
        mid = (short + cut) // 2
        short, cut = (short, mid) if beyond(mid) else (mid, cut)
    v = np.arange(cut)
    mode = max(0, math.floor(mean - odds))
    # the ratios below the mode arise only where (shape + v) q >= v + 1 >= 1
    return _from_mode(np.where(v > mode, (shape + v - 1) * q / np.maximum(v, 1), 1.0),
                      np.where(v < mode, (v + 1) / np.maximum((shape + v) * q, 1.0), 1.0))


def _tabled(law: np.ndarray):
    """Sampler ``draw(rng, n) -> n int64 values`` of ``law``, one raw word each
    through its alias table (_alias_sampler)."""
    draw = _alias_sampler([law])
    return lambda rng, n: draw(rng.bit_generator.random_raw(n), None)


def _poisson_count(mean: float):
    """Sampler ``draw(rng, n) -> n int64 counts`` of Pois(mean), tabled unless
    its table would pass 2^_TABLE_BITS_MAX entries (_poisson_laws), and then
    drawn by numpy's Poisson sampler, which refuses means above
    _POISSON_MEAN_MAX."""
    law = _poisson_laws(np.array([_count_mean(mean)]))[0]
    if law is None:
        return lambda rng, n: rng.poisson(mean, size=n)
    return _tabled(law)


def _binomial_count(n_trials: int, q: float):
    """Sampler ``draw(rng, n) -> n int64 counts`` of Bin(n_trials, q), tabled
    unless its n_trials + 1 values pass 2^_TABLE_BITS_MAX entries, and then
    drawn by numpy's binomial sampler."""
    if n_trials < 2**_TABLE_BITS_MAX:
        return _tabled(_binomial_law(n_trials, q))
    return lambda rng, n: rng.binomial(n_trials, q, size=n)


def _slot_sampler(dist: RateDistribution, alpha: float, N: float, theta: float | None = None):
    """Sampler of the rate sum over the N^alpha slots, one pooled draw per
    run, twisted by ``theta`` if given.

    Returns (draw(rng, m) -> pooled sums, slot_count).  Gamma kinds
    (exponential included) draw one gamma of real shape N^alpha * beta.  The
    other kinds sum n = round(N^alpha) slots: Poisson rates as one Poisson
    count of mean n * lam * e^theta (_poisson_count), two-point rates as
    n * lam1 plus (lam2 - lam1) times a Bin(n, q) count of slots at lam2, q
    their twisted weight (_binomial_count), and deterministic rates as
    n * lam, with no draw.
    Every estimator checks alpha and N, that N^alpha is a positive float and
    the pooled gamma shape a float, and that numpy can draw the untabled
    pooled Poisson mean and binomial count, here.
    """
    if not (alpha > 0.0 and N > 0.0):
        raise DomainError(f"alpha and N must be positive, got alpha={alpha}, N={N}")
    n_alpha = exp_or_inf(alpha * math.log(N))
    if n_alpha == math.inf:
        raise DomainError(f"N^alpha exceeds the float range at alpha={alpha}, N={N}")
    if n_alpha == 0.0:
        raise DomainError(f"N^alpha underflows to 0 at alpha={alpha}, N={N}")
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
        count = _poisson_count(slots * (dist.lam if theta is None else dist.lam * math.exp(theta)))

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            return count(rng, m).astype(np.float64)

    elif isinstance(dist, TwoPoint):
        if slots > _BINOMIAL_COUNT_MAX:
            raise DomainError(f"N^alpha = {n_alpha:.6g} two-point slots exceed the binomial "
                              f"sampler's limit of 2^63 - 1")
        low, spread = slots * dist.lam1, dist.lam2 - dist.lam1
        count = _binomial_count(slots, 1.0 - dist.p if theta is None else dist._twisted_q(theta))

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            return low + spread * count(rng, m)

    else:  # deterministic rates
        total = slots * dist.lam

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            return np.full(m, total)

    return draw, float(slots)


def _tail_at_tilt(dist: RateDistribution, alpha: float, a: float, N: float, runs: int,
                  seed: int, theta: float | None) -> EstimatorResult:
    """The overflow probability P(count >= N*a) with the slot rates
    exponentially twisted by ``theta``, each run weighed by the likelihood
    ratio exp(slot_count * CGF(theta) - theta * S) of its pooled rate S.
    Crude Monte Carlo is the untilted case, ``theta=None``, where every run
    weighs its indicator alone.

    With gamma slot rates the count, Pois(c S) given S ~ Gamma(s, rate)
    with s = slot_count * beta, c = N / slot_count and rate lam - theta, is
    negative binomial of shape s and weight q = c / (rate + c).  Each run
    draws the count itself, one raw word through an alias table of its law
    (_negbin_law) built once per call, and hits when it reaches
    k = ceil(N a); a twisted run draws S only where it hits, from its law
    given the count C, Gamma(s + C, rate + c), so (S, C) keep their joint
    law.  Crude results then do not depend on the block size, twisted ones
    do.  Other rates, and gamma rates whose table would pass
    2^_TABLE_BITS_MAX entries, draw S (_slot_sampler) and decide the hit as
    G <= c S with G ~ Gamma(k, 1), as queue.mc_Q does.
    """
    cgf_at_twist = None if theta is None else float(dist.cgf(theta)[0])
    draw, slot_count = _slot_sampler(dist, alpha, N, theta=theta)
    k = ceil_count(N * a)

    def pooled_block(rng: np.random.Generator, n: int) -> np.ndarray:
        pooled = draw(rng, n)
        hit = rng.standard_gamma(k, size=n) <= N * pooled / slot_count
        if theta is None:
            return hit
        return np.exp(slot_count * cgf_at_twist - theta * pooled) * hit

    def sampler():  # the count's table is built after the budget check
        if not isinstance(dist, GammaRate):
            return 2, pooled_block
        rate = dist.lam if theta is None else dist.lam - theta
        shape, c = slot_count * dist.beta, N / slot_count
        law = _negbin_law(shape, c / (rate + c))
        if law is None:
            return 2, pooled_block
        count = _tabled(law)

        def count_block(rng: np.random.Generator, n: int) -> np.ndarray:
            counts = count(rng, n)
            hit = counts >= k
            if theta is None:
                return hit
            # the pooled rates of the hit runs, from their laws given the counts
            pooled = rng.standard_gamma(shape + counts[hit]) / (rate + c)
            weight = np.zeros(n)
            weight[hit] = np.exp(slot_count * cgf_at_twist - theta * pooled)
            return weight

        return 2, count_block

    return _run_blocks(seed, runs, 2, sampler)


def mc_P(dist: RateDistribution, alpha: float, a: float, N: float, runs: int,
         seed: int) -> EstimatorResult:
    """Crude Monte Carlo for the overflow probability P(count >= N*a).

    With gamma slot rates each run draws the negative binomial count itself,
    one raw word through the table of its law, so the results do not depend
    on the block size (_tail_at_tilt)."""
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
    point mass ("point") or the tail ("tail").  Each block of runs draws its
    pooled rates, then its proposals by numpy's Poisson sampler: through an
    alias table, one raw word per run, its time slowed more than numpy's
    Poisson draws on a loaded machine, and its benchmark timings spread up
    to three times as wide.
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

    def block(rng: np.random.Generator, n: int) -> np.ndarray:
        xbar = draw(rng, n) / slot_count
        z = rng.poisson(proposal_mean, size=n)
        # at an empty pooled rate the ratio is e^(N a) at z = 0 and 0 above
        with np.errstate(divide="ignore", invalid="ignore"):
            logw = np.where(z > 0, z * np.log(xbar / a), 0.0) + N * (a - xbar)
        hit = (z >= count) if quantity == "tail" else (z == count)
        return np.exp(logw) * hit

    return _run_blocks(seed, runs, 2, lambda: (2, block))


def is_slow(dist: RateDistribution, alpha: float, a: float, N: float, runs: int,
            seed: int) -> EstimatorResult:
    """Importance sampling tuned for slow resampling.

    The slot rates are exponentially twisted so their mean becomes a; each
    run draws their pooled sum under the twist, is reweighted by the product
    likelihood ratio, a function of that sum, and is scored on the overflow
    indicator.  With gamma slot rates a run draws its count first, from the
    table of its negative binomial law under the twist, and its pooled sum
    only where it hits, from its law given the count; the hit runs of a block
    draw theirs together, so these results depend on the block size
    (_tail_at_tilt).
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
