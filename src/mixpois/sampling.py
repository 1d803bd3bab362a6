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
grow with its runs.  A pooled Poisson or binomial slot count, like the
occupancy of a queue.mc_Q run (_occupancy_law), is one raw word read through
the alias table of its law (_tabled) built once per call, and a hit of a
Poisson count of per-run mean L at k is decided as G <= L for G ~ Gamma(k, 1),
the k-th epoch of a unit-rate Poisson process, since P(Pois(L) >= k) =
P(G <= L).  With gamma slot rates the overflow count itself, negative
binomial, is tabled too, as is is_fast's Pois(N a) proposal; each tabled
run draws its count first, and only the hit runs of is_slow and is_fast
draw their pooled rate (_count_block).  Each such count is one (a, b, 0) law
(_count_law), whose rows are the occupancy's slot laws too; numpy's Poisson
and binomial samplers remain for counts whose law is declined.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, InfeasibleTargetError, RegimeWarning
from .numerics import ceil_count, exact_count, exp_or_inf
from .rates import (DeterministicRate, GammaRate, PoissonRate, RateDistribution, TwoPoint,
                    rate_function)

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
# hold integer weights summing to 2^_WEIGHT_BITS.  The top bits of a raw word
# pick the entry and its low _WEIGHT_BITS - bits bits are compared with the
# entry's threshold: 40 bits at queue.mc_Q's largest table of 2^16 entries.
# Every table's thresholds, and so every seeded estimate, depend on the value
# of _WEIGHT_BITS.
#
# Every tabled count is an (a, b, 0) law, P(X = v) = (a + b / v) P(X = v - 1)
# (Panjer, ASTIN Bull. 12 (1981) 22-26), of mean (a + b) / (1 - a) and
# variance (a + b) / (1 - a)^2: Poisson(m) is (0, m), Bin(n, q) is
# (-q / (1 - q), (n + 1) q / (1 - q)) and NB(r, q) is (q, (r - 1) q).  One
# count's table holds at most 2^_TABLE_BITS_MAX entries, and ends where its
# law's upper tail falls below _TABLE_TAIL of its total.
_WEIGHT_BITS = 56
_TABLE_BITS_MAX = 12
_TABLE_TAIL = 2.0**-60
# mc_Q draws from the table of the occupancy law up to 2^_OCCUPANCY_BITS
# values: at that size one alias table's two int64 arrays take 1 MiB
_OCCUPANCY_BITS = 16


def _count_span(a: float, b: float) -> int | None:
    """The last value the pmf of the (a, b, 0) law is formed to: mean + 12 sd
    + 32, rounded up, plus for a > 0 the geometric allowance
    log(_TABLE_TAIL (1 - rho)) / log(rho), where rho = max(a, a + b / (v + 1))
    bounds the ratios past that value v; at most 2^_TABLE_BITS_MAX.  None,
    the law declined, where a is not below 1 or the mean is not in
    [0, 2^_TABLE_BITS_MAX), as at a weight q outside (0, 1)."""
    if not (a < 1.0 and 0.0 <= a + b < 2**_TABLE_BITS_MAX * (1.0 - a)):
        return None
    v = math.ceil((a + b) / (1.0 - a) + 12.0 * (math.sqrt(a + b) / (1.0 - a))) + 32
    if a > 0.0:
        rho = max(a, a + b / (v + 1))
        v += math.ceil(math.log(_TABLE_TAIL * (1.0 - rho)) / math.log(rho))
    return min(v, 2**_TABLE_BITS_MAX)


def _from_mode(up: np.ndarray, below: np.ndarray) -> np.ndarray:
    """A pmf along the last axis relative to its value at its mode, from the
    ratios up[v] = pmf(v) / pmf(v - 1) above the mode and below[v] =
    pmf(v) / pmf(v + 1) below it, each 1 elsewhere: every value is a product
    of ratios of at most 1, so it neither overflows nor loses digits to a
    log-factorial."""
    return np.cumprod(up, axis=-1) * np.cumprod(below[..., ::-1], axis=-1)[..., ::-1]


def _count_rows(a, b, span: int) -> np.ndarray:
    """The pmfs of (a, b, 0) laws at the values 0, 1, ..., span, unnormalised:
    one row for floats a and b, the rows of a matrix for columns, each
    relative to its mode (_from_mode) from the ratios (a v + b) / v and
    their inverses, each capped at 1, as the laws are unimodal.  a v + b is
    clipped at 0, where a binomial law ends: exactly at v = n + 1, as
    b = -a (n + 1)."""
    v = np.arange(span + 2)
    scaled = np.maximum(a * v + b, 0.0)  # v pmf(v) / pmf(v - 1)
    v = v[:-1]
    up = np.minimum(scaled[..., :-1] / np.maximum(v, 1), 1.0)
    up[..., 0] = 1.0
    # where a ratio (v + 1) / (a (v + 1) + b) is below 1 its divisor is at least 1
    return _from_mode(up, np.minimum((v + 1) / np.maximum(scaled[..., 1:], 1.0), 1.0))


def _count_cut(laws: np.ndarray, a, b):
    """The count of values that the single-law cut keeps of each of ``laws``
    (_count_rows, of the same a and b), or 0 where the cut lies past it: the
    first v with P(X >= v) < _TABLE_TAIL of the total, by the geometric bound
    P(X >= v) <= pmf(v) / (1 - rho) with rho = a + max(b, 0) / (v + 1), the
    largest ratio past v (never at v = 0, where rho < 1 makes 0 the mode)."""
    v = np.arange(1, laws.shape[-1] + 1)  # v + 1 at the value v
    total = np.add.reduce(laws, axis=-1, keepdims=True)
    return np.argmax(laws * v < _TABLE_TAIL * total * ((1.0 - a) * v - np.maximum(b, 0.0)),
                     axis=-1)


def _count_law(a: float, b: float) -> np.ndarray | None:
    """The pmf of the (a, b, 0) law, unnormalised and cut (_count_cut); or
    None where the law is declined before any array is formed (_count_span)
    or its cut lies past its span."""
    span = _count_span(a, b)
    if span is None:
        return None
    law = _count_rows(a, b, span)
    cut = _count_cut(law, a, b)
    return law[:cut] if cut else None


def _alias_tables(law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The alias table of ``law``, given by unnormalised probabilities of the
    values 0, 1, ..., as two int64 arrays of 2^bits entries: the thresholds
    and the aliases of the entries.

    Entry v holds weight t_v of value v and 2^(_WEIGHT_BITS - bits) - t_v of
    its alias.  The integer weights sum to 2^_WEIGHT_BITS: they are rounded
    cumulatively, so each is within one unit of its share, and the mode takes
    up the rounding of the law's normalisation, at most 2^(_WEIGHT_BITS - 52)
    units; so each value's probability is within 2^-50 of the law's.  The
    entries are filled by the sweep of Huebschle-Schneider and Sanders
    (Parallel weighted random sampling, ESA 2019): the entries over capacity,
    in order, give their excess to the entries under it, in order, each
    giving its last part with its own entry, so every entry is placed by one
    search in the running sums of deficit and excess.
    """
    bits = max(1, (law.size - 1).bit_length())
    size, capacity, total = 2**bits, 2**(_WEIGHT_BITS - bits), 2**_WEIGHT_BITS
    p = np.zeros(size)
    p[:law.size] = law / math.fsum(law.tolist())
    x = p * float(total)
    whole = np.floor(x)
    cumulative = (np.cumsum(whole.astype(np.int64))
                  + np.rint(np.cumsum(x - whole)).astype(np.int64))
    weight = np.diff(cumulative, prepend=0)
    weight[np.argmax(weight)] += total - cumulative[-1]

    light = weight <= capacity
    deficit = np.where(light, capacity - weight, 0)
    deficit_to = np.cumsum(deficit)
    deficit_before = deficit_to - deficit
    excess_to = np.cumsum(np.where(light, 0, weight - capacity))
    # a light entry's alias: the heavy entry whose running excess first passes
    # its running deficit; a heavy entry's: the next heavy entry
    alias = np.searchsorted(excess_to, np.where(light, deficit_before, excess_to), side="right")
    # a heavy entry keeps what is left of its weight once the light entries
    # before its running excess have taken theirs
    taken = np.searchsorted(deficit_before, excess_to, side="left")
    threshold = np.where(light, weight, capacity + excess_to - deficit_to[taken - 1])
    # a search past the last heavy entry, for an entry of full threshold,
    # whose alias is never read, lands past the table
    return threshold, np.minimum(alias, size - 1)


def _tabled(law: np.ndarray):
    """Sampler ``draw(rng, n) -> n int64 values`` of ``law``, one raw uint64
    word each, whose top bits pick the entry of its alias table and whose low
    _WEIGHT_BITS - bits bits are compared with the entry's threshold
    (_alias_tables)."""
    threshold, alias = _alias_tables(law)
    bits = threshold.size.bit_length() - 1
    shift, low = np.uint64(64 - bits), np.uint64(2**(_WEIGHT_BITS - bits) - 1)

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        raw = rng.bit_generator.random_raw(n)
        # as int64, whose indexing and comparisons need no conversion
        entry = (raw >> shift).view(np.int64)
        np.bitwise_and(raw, low, out=raw)
        return np.where(raw.view(np.int64) < threshold[entry], entry, alias[entry])

    return draw


def _count_sampler(a: float, b: float, untabled):
    """Sampler ``draw(rng, n) -> n int64 counts`` of the (a, b, 0) law, one raw
    word each through the alias table of its law (_count_law), or
    ``untabled``, numpy's sampler, where that law is declined."""
    law = _count_law(a, b)
    return untabled if law is None else _tabled(law)


def _count_block(count, hit, weigh):
    """Block ``block(rng, n) -> n per-run weights`` of runs scored on a count:
    it draws the block's counts, ``count(rng, n)``, and scores them by
    ``hit(counts)``; where ``weigh`` is given, each hit run weighs
    ``weigh(rng, hit counts)``, drawn after every count of the block, and
    the others 0.  Weighed results then depend on the block size, unweighed
    ones do not."""

    def block(rng: np.random.Generator, n: int) -> np.ndarray:
        counts = count(rng, n)
        hits = hit(counts)
        if weigh is None:
            return hits
        weight = np.zeros(n)
        weight[hits] = weigh(rng, counts[hits])
        return weight

    return block


def _slot_sampler(dist: RateDistribution, alpha: float, N: float, theta: float | None = None):
    """Sampler of the rate sum over the N^alpha slots, one pooled draw per
    run, twisted by ``theta`` if given.

    Returns (draw(rng, m) -> pooled sums, slot_count).  Gamma kinds
    (exponential included) draw one gamma of real shape N^alpha * beta.  The
    other kinds sum n = round(N^alpha) slots: Poisson rates as one Poisson
    count of mean n * lam * e^theta, two-point rates as n * lam1 plus
    (lam2 - lam1) times a Bin(n, q) count of slots at lam2, q their twisted
    weight, each tabled unless its law is declined (_count_sampler), and
    deterministic rates as n * lam, with no draw.
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
        mean = _count_mean(slots * (dist.lam if theta is None else dist.lam * math.exp(theta)))
        count = _count_sampler(0.0, mean, lambda rng, m: rng.poisson(mean, size=m))

        def draw(rng: np.random.Generator, m: int) -> np.ndarray:
            return count(rng, m).astype(np.float64)

    elif isinstance(dist, TwoPoint):
        if slots > _BINOMIAL_COUNT_MAX:
            raise DomainError(f"N^alpha = {n_alpha:.6g} two-point slots exceed the binomial "
                              f"sampler's limit of 2^63 - 1")
        low, spread = slots * dist.lam1, dist.lam2 - dist.lam1
        q = 1.0 - dist.p if theta is None else dist._twisted_q(theta)
        odds = q / (1.0 - q) if q < 1.0 else math.inf  # a certain weight is declined
        count = _count_sampler(-odds, (slots + 1) * odds,
                               lambda rng, m: rng.binomial(slots, q, size=m))

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
    (_count_law) built once per call, and hits when it reaches
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
        q = c / (rate + c)
        law = _count_law(q, (shape - 1.0) * q)
        if law is None:
            return 2, pooled_block

        def weigh(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
            # the pooled rates of the hit runs, from their laws given the counts
            pooled = rng.standard_gamma(shape + counts) / (rate + c)
            return np.exp(slot_count * cgf_at_twist - theta * pooled)

        return 2, _count_block(_tabled(law), lambda counts: counts >= k,
                               None if theta is None else weigh)

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
    proposals first, one raw word per run through the alias table of
    Pois(N*a) (_count_sampler), then the pooled rates of its hit runs only,
    together: the pooled rate is independent of the proposal, so each run
    keeps the paper's joint law, but these results depend on the block
    size, as is_slow's do.  The table drops the counts past its 2^-60 upper
    tail, which biases the estimate by the relative amount
    P(count >= cut) / P(count >= N*a) of the counts at or past the cut: at
    most 2.3e-12 on the fig 2 grid, at N = 2, and held below 1e-9 there and
    on the pinned cells by the tests.
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

    def sampler():  # the proposal's table is built after the budget check
        mean = _count_mean(N * a)
        proposal = _count_sampler(0.0, mean, lambda rng, m: rng.poisson(mean, size=m))

        def weigh(rng: np.random.Generator, z: np.ndarray) -> np.ndarray:
            xbar = draw(rng, z.size) / slot_count
            # at an empty pooled rate the ratio is e^(N a) at z = 0 and 0 above
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.exp(np.where(z > 0, z * np.log(xbar / a), 0.0) + N * (a - xbar))

        hit = (lambda z: z >= count) if quantity == "tail" else (lambda z: z == count)
        return 2, _count_block(proposal, hit, weigh)

    return _run_blocks(seed, runs, 2, sampler)


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


def _mark_means(lam: float, omegas: np.ndarray) -> np.ndarray:
    """Mean counts mu_y, y = 0..Y, of the slot-rate units that add y occupants.

    With X_i ~ Pois(lam) units in slot i, each adding Pois(omega_i) occupants,
    the counts of units by mark y are independent Poisson counts of means
    mu_y = lam sum_i e^-omega_i omega_i^y / y! (the marking theorem).  The
    table ends at the first Y >= 1 with N lam / (Y + 1)! < 2^-53, which bounds
    the mean count of the units that add more, since omega_i <= 1.  The terms
    e^-omega_i omega_i^y / y! are one running product over the marks.
    """
    Y, bound = 1, lam / 2.0  # lam / (Y + 1)!, against 2^-53 / N
    while bound >= 2.0**-53 / omegas.size:
        Y += 1
        bound /= Y + 1
    factors = np.empty((Y + 1, omegas.size))
    factors[0] = np.exp(-omegas)
    factors[1:] = omegas / np.arange(1, Y + 1)[:, None]
    return lam * np.add.reduce(np.multiply.accumulate(factors, axis=0), axis=1)


def _stretched(law: np.ndarray, mark: int) -> np.ndarray:
    """``law``, the pmf of a count C, as the pmf of mark * C."""
    if mark == 1:
        return law
    out = np.zeros(mark * (law.size - 1) + 1)
    out[::mark] = law
    return out


def _cut(laws: np.ndarray) -> np.ndarray:
    """``laws``, rows of unnormalised pmfs of the values 0, 1, ..., cut past
    the last value at which the upper tail of some row still holds
    _TABLE_TAIL of its total."""
    tail = np.cumsum(laws[:, ::-1], axis=1)[:, ::-1]
    return laws[:, :np.max(np.count_nonzero(tail >= _TABLE_TAIL * tail[:, :1], axis=1))]


def _pair_sums(laws: np.ndarray) -> np.ndarray:
    """The convolutions of the rows 2j and 2j + 1 of ``laws``, pmfs of width
    w, as rows of width 2w - 1, after a row of a point mass at 0 is added to
    an odd count.  Each entry is a direct sum over a sliding window (einsum,
    no BLAS): an FFT's rounding, about 1e-16 of the peak, would swamp the
    entries of the tail."""
    if laws.shape[0] % 2:
        laws = np.vstack([laws, np.eye(1, laws.shape[1])])
    w = laws.shape[1]
    padded = np.zeros((laws.shape[0] // 2, 3 * w - 2))
    padded[:, w - 1:2 * w - 1] = laws[1::2]
    windows = np.lib.stride_tricks.sliding_window_view(padded, w, axis=1)
    return np.einsum("ivu,iu->iv", windows, np.ascontiguousarray(laws[0::2, ::-1]))


def _convolved(slots: int, width, slot_laws) -> np.ndarray:
    """The convolution of the laws of ``slots`` slots, widest first, on the
    values 0, 1, ...: ``slot_laws(start, stop)`` gives the pmfs of the slots
    start, ..., stop - 1 as the rows of a matrix, ``width(start)`` the values
    it forms per slot for a batch from slot ``start``.

    Each batch holds at most _BLOCK_SCALARS values, or one slot: so no
    matrix grows with N, and a few wide slots do not widen the many narrow
    ones.  A batch's slot laws are convolved pairwise, level by level
    (_pair_sums), and the batch sums in turn; every sum is cut where its
    upper tail falls below _TABLE_TAIL (_cut), so each value keeps its share
    within far less than the 2^-50 of the alias table.
    """
    occupancy, start = np.ones(1), 0
    while start < slots:
        stop = min(slots, start + max(1, int(_BLOCK_SCALARS // width(start))))
        laws = _cut(slot_laws(start, stop))
        start = stop
        while laws.shape[0] > 1:
            laws = _cut(_pair_sums(laws))
        occupancy = _cut(np.convolve(occupancy, laws[0])[None])[0]
    return occupancy


def _occupancy_law(dist: RateDistribution, omegas: np.ndarray) -> np.ndarray | None:
    """The pmf of the occupancy sum_i Pois(omega_i X_i) over the slot rates
    X_i, unnormalised and cut where its upper tail falls below _TABLE_TAIL,
    on the values 0, 1, ...; or None where no table is built.

    The table is declined before any convolution where the occupancy's mean
    m = E[X] sum omega_i and variance s^2 = m + Var(X) sum omega_i^2 put
    m + 12 s + 32 past 2^_OCCUPANCY_BITS values, or where the widest slot
    count's own law is declined (_count_law), and after it where the cut
    law is wider than that.
      - Poisson rates: the occupancy is sum_y y C_y over the independent
        Poisson counts C_y of the units that add y occupants (_mark_means),
        the convolution of their laws, each stretched by its mark.
      - Two-point and gamma rates: the convolution (_convolved) of the slot
        counts, each a mixture of (a, b, 0) laws, widest law last: two-point
        slots p Pois(lam1 omega_i) + (1 - p) Pois(lam2 omega_i), gamma slots
        NB(beta, q_i), q_i = omega_i / (lam + omega_i).  Each batch's pmfs
        are the rows of one matrix (_count_rows) over the span of its first
        slot's widest law (_count_span), the widest.
      - Deterministic rates: one Poisson law of mean lam sum omega_i.
    Every convolution is direct: an FFT's rounding, about 1e-16 of the peak,
    would swamp the entries of the tail (Jongbloed and Koole, Appl. Stoch.
    Models Bus. Ind. 17 (2001) 307-318, build the same laws slot by slot).
    """
    total = math.fsum(omegas)
    mean = dist.mean * total
    variance = mean + dist.variance * math.fsum(omegas * omegas)
    if not mean + 12.0 * math.sqrt(variance) + 32.0 <= 2**_OCCUPANCY_BITS:
        return None
    positive = np.sort(omegas[omegas > 0.0])[::-1]  # the slots that add occupants, widest first
    if isinstance(dist, PoissonRate):
        means = _mark_means(dist.lam, omegas)[1:]
        if (span := _count_span(0.0, float(np.max(means)))) is None:
            return None
        # every mark's law, over the span of the largest mean, cut by its own rule
        rows = _count_rows(0.0, means[:, None], span)
        cuts = _count_cut(rows, 0.0, means[:, None])
        if not cuts.all():
            return None
        law = np.ones(1)
        for y, (row, cut) in enumerate(zip(rows, cuts), start=1):
            law = _cut(np.convolve(law, _stretched(row[:cut], y))[None])[0]
    elif isinstance(dist, (TwoPoint, GammaRate)):
        # slot i's count mixes, with the weights w, the (a, b, 0) laws of
        # column i of b and of a, or of a = 0 as a scalar (a column of zeros
        # would add a product over every entry of a batch's Poisson rows)
        if isinstance(dist, TwoPoint):
            w, a, b = (dist.p, 1.0 - dist.p), 0.0, np.outer([dist.lam1, dist.lam2], positive)
        else:
            q = positive / (dist.lam + positive)
            w, a = (1.0,), q[q > 0.0][None]
            b = (dist.beta - 1.0) * a

        def widest(i: int) -> tuple[float, float]:  # slot i's widest law
            return (a[-1, i] if np.ndim(a) else a), b[-1, i]

        def slot_laws(start: int, stop: int) -> np.ndarray:
            # the (component, slot) pairs stacked into one column of rows
            a_col = a[:, start:stop].reshape(-1, 1) if np.ndim(a) else a
            rows = _count_rows(a_col, b[:, start:stop].reshape(-1, 1), _count_span(*widest(start)))
            pmfs = (rows / np.add.reduce(rows, axis=1)[:, None]).reshape(len(w), stop - start, -1)
            return pmfs[0] if len(w) == 1 else sum(c * pmf for c, pmf in zip(w, pmfs))

        if b.shape[1] and _count_law(*widest(0)) is None:
            return None
        law = _convolved(b.shape[1], lambda start: len(w) * (_count_span(*widest(start)) + 1),
                         slot_laws)
    else:  # deterministic rates
        law = _count_law(0.0, dist.lam * total)
    return law if law is not None and law.size <= 2**_OCCUPANCY_BITS else None


def _slot_rates(dist: TwoPoint | GammaRate):
    """Sampler ``draw(rng, shape) -> slot rates`` of two-point or gamma
    rates: lam1 where a uniform falls below p and lam2 elsewhere, or numpy's
    gamma draws."""
    if isinstance(dist, TwoPoint):
        return lambda rng, shape: np.where(rng.random(shape) < dist.p, dist.lam1, dist.lam2)
    return lambda rng, shape: rng.gamma(dist.beta, 1.0 / dist.lam, size=shape)


def _occupancy_sampler(dist: RateDistribution, omegas: np.ndarray, k: int):
    """queue.mc_Q's ``sampler() -> (width, block)`` of runs that hit where
    the occupancy sum_i Pois(omega_i X_i) over the slot rates X_i reaches k.

    Each run draws its occupancy as one raw word read through the alias
    table of its law (_occupancy_law, _tabled), built once per call, so the
    results do not depend on the block size.  Where that law has no table,
    Poisson slot rates draw the occupancy as sum_y y C_y over the counts C_y
    of the units of mark y (_mark_means) with numpy's Poisson sampler, and
    the hit of the Pois(Lambda) occupancy, Lambda = sum_i omega_i X_i, is
    drawn as G <= Lambda with G ~ Gamma(k, 1), the k-th epoch of a unit-rate
    Poisson process, since P(Pois(Lambda) >= k) = P(G <= Lambda):
    deterministic rates draw only the epochs, against the one
    Lambda = lam sum omega_i, and two-point and gamma rates draw the N slot
    rates X_i of a run (_slot_rates), each block of runs its rate sums, then
    its epochs.
    """
    if (law := _occupancy_law(dist, omegas)) is not None:
        return 1, _count_block(_tabled(law), lambda counts: counts >= k, None)
    if isinstance(dist, PoissonRate):
        means = _count_mean(_mark_means(dist.lam, omegas)[1:])
        marks = np.arange(1, means.size + 1)
        return means.size, lambda rng, n: rng.poisson(means, size=(n, means.size)) @ marks >= k
    if isinstance(dist, DeterministicRate):
        rate_sum = np.add.reduce(dist.lam * omegas)
        return 1, lambda rng, n: rate_sum >= rng.standard_gamma(k, size=n)
    rates = _slot_rates(dist)

    def block(rng: np.random.Generator, n: int) -> np.ndarray:
        rate_sums = np.add.reduce(rates(rng, (n, omegas.size)) * omegas, axis=1)
        return rate_sums >= rng.standard_gamma(k, size=n)

    return omegas.size + 1, block
