import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpois import queue, sampling
from mixpois.errors import BudgetError, DomainError, InfeasibleTargetError, RegimeWarning
from mixpois.gamma_exact import GammaCase, P_exact, p_exact
from mixpois.numerics import ceil_count
from mixpois.queue import DetService, ExpService, mc_Q, mean_load, omega_vector
from mixpois.rates import (DeterministicRate, Exponential, GammaRate, PoissonRate, TwoPoint,
                           rate_function)
from mixpois.sampling import (
    Z_95,
    is_fast,
    is_slow,
    mc_P,
    stream,
)
from reference import (efficiency_ratios, negbin_log_pmf, occupancy_pmf, poisson_log_pmf,
                       poisson_tail, pooled_poisson_tail, pooled_twopoint_tail,
                       twopoint_occupancy_pmf)

EXP25 = Exponential(2.5)
TP = TwoPoint(0.75, 1.0, 5.0)
PART = 314


def joint_dev(result, exact):
    return abs(result.estimate - exact) / (result.ci_halfwidth_95 / Z_95)


class TestStreams:
    def test_validation(self):
        with pytest.raises(DomainError):
            stream(-1)

    def test_counter_based_independence(self):
        a = stream(123).random(8)
        b = stream(124).random(8)
        a2 = stream(123).random(8)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)


class TestReproducibility:
    def test_bit_identical_rerun(self):
        kwargs = dict(dist=EXP25, alpha=1.2, a=1.0, N=10.0, runs=40_000)
        r1 = mc_P(seed=7, **kwargs)
        r2 = mc_P(seed=7, **kwargs)
        assert r1 == r2


class TestEstimatorResult:
    def test_invariants(self):
        r = mc_P(EXP25, 1.0, 1.0, 10.0, 30_000, PART)
        assert r.ci_halfwidth_95 == pytest.approx(Z_95 * math.sqrt(r.sample_variance / r.runs), rel=1e-12)
        assert r.second_moment >= r.estimate**2
        assert r.runs == 30_000

    def test_certain_event(self):
        r = mc_P(EXP25, 1.0, 0.0, 10.0, 1000, PART)
        assert r.estimate == 1.0
        assert r.sample_variance == 0.0


class TestCrudeMonteCarlo:
    def test_matches_exact(self):
        exact = P_exact(GammaCase(1.0, 2.5, 1.0, 2.0, 10.0))
        r = mc_P(EXP25, 1.0, 2.0, 10.0, 10**6, PART)
        assert joint_dev(r, exact) < 4.0

    def test_integer_slot_kinds(self):
        # two-point rates go through the rounded slot-count path
        tp = TwoPoint(0.75, 1.0, 5.0)
        r = mc_P(tp, 1.0, 3.0, 6.0, 10**5, PART)
        assert 0.0 < r.estimate < 1.0

    def test_budget_guard(self):
        # one pooled slot sum and one count per run, whatever the law: one run
        # more than 4e9 / 2 exceeds the budget, refused before any draw
        with pytest.raises(BudgetError, match="2000000001 runs x 2 draws/run"):
            mc_P(TwoPoint(0.75, 1.0, 5.0), 2.0, 3.0, 1000.0, 2_000_000_001, PART)


@pytest.mark.filterwarnings("ignore::mixpois.errors.RegimeWarning")
@pytest.mark.parametrize("estimator", [mc_P, is_fast, is_slow])
@pytest.mark.parametrize("alpha,N", [(-0.5, 5.0), (0.0, 5.0), (0.5, -1.0), (2.0, 0.0)])
def test_estimators_reject_nonpositive_alpha_and_N(estimator, alpha, N):
    with pytest.raises(DomainError, match="alpha and N must be positive"):
        estimator(Exponential(1.0), alpha, 2.0, N, 10, PART)


class TestFastEstimator:
    def test_unit_weights_without_mixing(self):
        # point estimate at the deterministic rate itself: weights are all one
        lam = 2.0
        N, a = 12.0, 2.0
        r = is_fast(DeterministicRate(lam), 2.0, a, N, 10**5, PART, quantity="point")
        exact = math.exp(poisson_log_pmf(N * lam, round(N * a)))
        assert joint_dev(r, exact) < 4.0
        assert r.second_moment == pytest.approx(r.estimate, rel=1e-12)  # w in {0,1}

    def test_point_matches_exact(self):
        exact = p_exact(GammaCase(1.0, 2.5, 1.2, 1.0, 10.0))
        r = is_fast(EXP25, 1.2, 1.0, 10.0, 10**6, PART, quantity="point")
        assert joint_dev(r, exact) < 4.0

    def test_tail_matches_exact(self):
        exact = P_exact(GammaCase(1.0, 2.5, 1.2, 1.0, 10.0))
        r = is_fast(EXP25, 1.2, 1.0, 10.0, 10**6, PART, quantity="tail")
        assert joint_dev(r, exact) < 4.0

    # the proposal's table drops the counts at or past its cut, which moves
    # the tail by the relative amount P(count >= cut) / P(count >= k): on the
    # fig 2 grid, whose N = 8 cell is the benchmark's determinism probe, and
    # on the pinned cell
    @pytest.mark.parametrize("dist,alpha,a,N", [
        *[(Exponential(1.0), 2.0, 2.0, float(N)) for N in (2, 4, 8, 16, 32, 64)],
        (EXP25, 1.2, 1.0, 10.0),
    ], ids=[*[f"fig2-N{N}" for N in (2, 4, 8, 16, 32, 64)], "exp2.5-pin"])
    def test_proposal_table_cut_bias(self, dist, alpha, a, N):
        cut = sampling._poisson_laws(np.array([N * a]))[0].size
        tail = lambda level: P_exact(GammaCase(dist.beta, dist.lam, alpha, level, N))
        assert tail(cut / N) / tail(a) <= 1e-9

    def test_untabled_proposal_matches_exact(self):
        # a proposal mean of 3675 passes the table bound, so numpy's Poisson
        # sampler draws it; the pooled rate of 3500^2 unit slots is 1
        assert sampling._poisson_laws(np.array([3675.0]))[0] is None
        results = [is_fast(DeterministicRate(1.0), 2.0, 1.05, 3500.0, 10**4, seed)
                   for seed in range(1000, 1020)]
        estimate = math.fsum(r.estimate for r in results) / len(results)
        se = math.sqrt(math.fsum(r.sample_variance / r.runs for r in results)) / len(results)
        assert abs(estimate - poisson_tail(3500.0, 3675)) <= 4.0 * se

    def test_validation(self):
        with pytest.raises(DomainError):
            is_fast(EXP25, 2.0, 0.2, 10.0, 100, PART)  # below the mean
        with pytest.raises(DomainError):
            is_fast(EXP25, 2.0, 1.0, 10.0, 100, PART, quantity="nope")
        with pytest.raises(DomainError):
            is_fast(EXP25, 2.0, 1.05, 10.0, 100, PART, quantity="point")  # fractional count

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            is_fast(EXP25, 0.8, 1.0, 10.0, 1000, PART)


class TestSlowEstimator:
    def test_twist_root(self):
        assert rate_function(Exponential(1.0), 2.0).theta_star == pytest.approx(0.5, rel=1e-12)

    def test_matches_exact_deep_tail(self):
        exact = P_exact(GammaCase(1.0, 2.5, 0.5, 2.0, 100.0))
        r = is_slow(EXP25, 0.5, 2.0, 100.0, 10**6, PART)
        assert exact < 1e-10  # far beyond crude-MC reach
        assert joint_dev(r, exact) < 4.0

    def test_integer_slot_kinds(self):
        exact_rate = PoissonRate(2.0)
        with pytest.warns(RegimeWarning):
            r = is_slow(exact_rate, 1.0, 3.0, 9.0, 2 * 10**5, PART)
        crude = mc_P(exact_rate, 1.0, 3.0, 9.0, 2 * 10**5, 77)
        joint = math.hypot(r.ci_halfwidth_95, crude.ci_halfwidth_95)
        assert abs(r.estimate - crude.estimate) < 2.5 * joint

    def test_infeasible_twist(self):
        with pytest.raises(InfeasibleTargetError):
            is_slow(TwoPoint(0.75, 1.0, 5.0), 0.5, 6.0, 10.0, 100, PART)
        with pytest.raises(DomainError):
            is_slow(EXP25, 0.5, 0.2, 10.0, 100, PART)

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            is_slow(EXP25, 1.5, 1.0, 4.0, 1000, PART)


class TestRepeatedSeedCoverage:
    @pytest.mark.parametrize(
        "runner,exact",
        [
            (
                lambda seed: mc_P(EXP25, 1.0, 1.0, 10.0, 10**5, seed),
                P_exact(GammaCase(1.0, 2.5, 1.0, 1.0, 10.0)),
            ),
            (
                lambda seed: is_fast(EXP25, 1.2, 1.0, 10.0, 10**5, seed,
                                     quantity="tail"),
                P_exact(GammaCase(1.0, 2.5, 1.2, 1.0, 10.0)),
            ),
            (
                lambda seed: is_fast(EXP25, 1.2, 1.0, 10.0, 10**5, seed,
                                     quantity="point"),
                p_exact(GammaCase(1.0, 2.5, 1.2, 1.0, 10.0)),
            ),
            (
                lambda seed: is_slow(EXP25, 0.5, 2.0, 25.0, 10**5, seed),
                P_exact(GammaCase(1.0, 2.5, 0.5, 2.0, 25.0)),
            ),
            # Poisson rates pooled into one Poisson draw over round(100^0.5) slots
            (
                lambda seed: mc_P(PoissonRate(2.0), 0.5, 3.0, 100.0, 10**5, seed),
                pooled_poisson_tail(2.0, 10, 100.0, 300),
            ),
            (
                lambda seed: is_slow(PoissonRate(2.0), 0.5, 3.0, 100.0, 10**5, seed),
                pooled_poisson_tail(2.0, 10, 100.0, 300),
            ),
        ],
        ids=["mc", "is-fast-tail", "is-fast-point", "is-slow", "mc-pois", "is-slow-pois"],
    )
    def test_within_four_se_across_twenty_seeds(self, runner, exact):
        covered = sum(1 for seed in range(1000, 1020) if joint_dev(runner(seed), exact) <= 4.0)
        assert covered >= 19  # 95% of 20 independently seeded repetitions


class TestPooledSlotSums:
    """Poisson and two-point slot sums drawn as one tabled count, twisted or
    not, and deterministic ones formed without a draw, each run's hit
    decided from the k-th epoch, and gamma ones as the tabled negative
    binomial overflow count, against the exact tails."""

    def test_two_point_reference(self):
        assert pooled_twopoint_tail(0.75, 1.0, 5.0, 10, 100.0, 300) == pytest.approx(
            0.050361, abs=5e-7)

    @pytest.mark.parametrize("runner,exact", [
        (lambda seed: mc_P(TP, 0.5, 3.0, 100.0, 10**5, seed),
         pooled_twopoint_tail(0.75, 1.0, 5.0, 10, 100.0, 300)),
        (lambda seed: is_slow(TP, 0.5, 3.0, 100.0, 10**5, seed),
         pooled_twopoint_tail(0.75, 1.0, 5.0, 10, 100.0, 300)),
        (lambda seed: is_fast(TP, 2.0, 3.0, 4.0, 10**5, seed),
         pooled_twopoint_tail(0.75, 1.0, 5.0, 16, 4.0, 12)),
        (lambda seed: mc_P(TP, 1.0, 2.05, 37.0, 10**5, seed),
         pooled_twopoint_tail(0.75, 1.0, 5.0, 37, 37.0, 76)),
        (lambda seed: mc_P(DeterministicRate(2.0), 0.5, 3.0, 9.0, 10**5, seed),
         poisson_tail(18.0, 27)),
        (lambda seed: mc_P(DeterministicRate(2.0), 1.0, 2.05, 1.0, 10**5, seed),
         poisson_tail(2.0, 3)),
        (lambda seed: mc_P(PoissonRate(2.0), 0.5, 3.0, 100.0, 10**5, seed),
         pooled_poisson_tail(2.0, 10, 100.0, 300)),
        (lambda seed: is_slow(PoissonRate(2.0), 0.5, 3.0, 100.0, 10**5, seed),
         pooled_poisson_tail(2.0, 10, 100.0, 300)),
        (lambda seed: is_fast(PoissonRate(2.0), 2.0, 3.0, 4.0, 10**5, seed),
         pooled_poisson_tail(2.0, 16, 4.0, 12)),
        (lambda seed: mc_P(EXP25, 0.5, 2.0, 8.0, 10**5, seed),
         P_exact(GammaCase(1.0, 2.5, 0.5, 2.0, 8.0))),
        (lambda seed: is_slow(EXP25, 0.5, 2.0, 8.0, 10**5, seed),
         P_exact(GammaCase(1.0, 2.5, 0.5, 2.0, 8.0))),
        (lambda seed: is_fast(EXP25, 1.2, 1.0, 10.0, 10**5, seed),
         P_exact(GammaCase(1.0, 2.5, 1.2, 1.0, 10.0))),
    ], ids=["mc-twopoint", "is-slow-twopoint", "is-fast-twopoint", "mc-twopoint-37-slots",
            "mc-det", "mc-det-1-slot", "mc-pois", "is-slow-pois", "is-fast-pois", "mc-exp",
            "is-slow-exp", "is-fast-exp"])
    def test_within_four_se_pooled_over_twenty_seeds(self, runner, exact):
        results = [runner(seed) for seed in range(1000, 1020)]
        estimate = math.fsum(r.estimate for r in results) / len(results)
        se = math.sqrt(math.fsum(r.sample_variance / r.runs for r in results)) / len(results)
        assert abs(estimate - exact) <= 4.0 * se


class TestWeightFiniteness:
    @given(
        lam=st.floats(min_value=0.3, max_value=4.0),
        alpha=st.floats(min_value=0.3, max_value=2.5),
        a_mult=st.floats(min_value=1.05, max_value=4.0),
        N=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_nonfinite_weights(self, lam, alpha, a_mult, N, seed):
        import warnings

        dist = Exponential(lam)
        a = a_mult / lam
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            fast = is_fast(dist, alpha, a, float(N), 2000, seed)
            slow = is_slow(dist, alpha, a, float(N), 2000, seed)
        for r in (fast, slow):
            assert math.isfinite(r.estimate)
            assert math.isfinite(r.second_moment)

    @given(
        lam=st.floats(min_value=0.1, max_value=3.0),
        a_mult=st.floats(min_value=1.05, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=15, deadline=None)
    def test_poisson_rate_zero_pooled_rate(self, lam, a_mult, seed):
        # Poisson rates can draw an all-zero pooled rate; weights must stay finite
        dist = PoissonRate(lam)
        r = is_fast(dist, 2.0, lam * a_mult, 3.0, 2000, seed)
        assert math.isfinite(r.estimate)

    @pytest.mark.parametrize("dist", [PoissonRate(2.0), EXP25], ids=lambda d: d.label())
    def test_zero_threshold_count_at_an_empty_pooled_rate(self, dist):
        # at N = 1e-12 the point count is 0, so P(count = 0) is 1 within
        # 1e-11; a run whose pooled rate is empty must keep its weight
        # e^(N a) at z = 0.  The tail threshold N a = 3e-12 is positive, so
        # its count is 1, not the 0 it would snap to: refused
        r = is_fast(dist, 2.0, 3.0, 1e-12, 100_000, 0, quantity="point")
        assert r.estimate == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(DomainError, match="positive but within"):
            is_fast(dist, 2.0, 3.0, 1e-12, 100_000, 0)


class TestEfficiencyDiagnostic:
    def test_crude_indicator_ratio_is_half(self):
        ratios = efficiency_ratios(lambda N: mc_P(EXP25, 0.5, 1.0, N, 50_000, 5),
                                   [1.0, 2.0, 4.0])
        for ratio in ratios:
            assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_rate_ratio_approaches_one(self):
        ratios = efficiency_ratios(
            lambda N: is_fast(DeterministicRate(1.0), 2.0, 2.0, N, 10**5, 5, quantity="point"),
            [4.0, 16.0, 64.0],
        )
        assert ratios == sorted(ratios)
        assert ratios[-1] > 0.9


def _at_block_size(monkeypatch, scalars, estimate):
    """``estimate()`` with blocks of at most ``scalars`` scalar draws."""
    with monkeypatch.context() as patch:
        patch.setattr(sampling, "_BLOCK_SCALARS", scalars)
        return estimate()


def _driven(width, block, runs):
    """The values ``block`` gives on ``runs`` runs of ``width`` draws driven
    by one _run_blocks call, and the stream's next uniform after them."""
    values, streams = [], []

    def recorded(rng, n):
        values.append(block(rng, n))
        streams.append(rng)
        return values[-1]

    sampling._run_blocks(4, runs, width + 1, lambda: (width, recorded))
    return np.concatenate(values), streams[-1].random()


def _past_one_chunk(N):
    """Runs of mc_Q at N slots past the 4e6-scalar chunks, of N + 1 scalars
    a run, that the estimator driver once held whole, ending in partial
    blocks."""
    return sampling._RUN_SCALARS_CAP // (N + 1) + 1000 + N


# block sizes: the default, one splitting the runs into blocks of other
# sizes, and the per-run cap, which holds every run of these tests in one block
_BLOCK_SIZES = [sampling._BLOCK_SCALARS, 999, sampling._RUN_SCALARS_CAP]


def _raw_words_read(monkeypatch, estimate, runs):
    """Whether ``estimate(runs)`` advances its stream, seed 11, by exactly
    ``runs`` raw words: the next word after it is the twin stream's after
    ``runs`` words."""
    streams = []

    def recorded(seed):
        streams.append(stream(seed))
        return streams[-1]

    with monkeypatch.context() as patch:
        patch.setattr(sampling, "stream", recorded)
        estimate(runs)
    twin = stream(11)
    twin.bit_generator.random_raw(runs)
    return streams[0].bit_generator.random_raw() == twin.bit_generator.random_raw()


class TestSlotBlocks:
    """The estimator driver draws, scores and sums its runs block by block.
    Gamma slot rates are drawn and reduced row by row, so their sums are bit
    for bit the same at every block size.  Every tabled occupancy law is one
    raw word per run through its table, so mc_Q's results are the same at
    every block size too.  Past the table bound the hits of rate sums follow
    each block's sums, so those results depend on the block size and are
    checked against the exact occupancy tail."""

    @pytest.mark.parametrize("width", [1, 10, 37, 1000, 2049, 10**5])
    def test_sums_and_stream_match(self, monkeypatch, width):
        runs = min(sampling._RUN_SCALARS_CAP // (width + 1), 5000)
        weights = np.linspace(0.1, 1.0, width)  # as mc_Q weighs slots by retention
        rates = queue._slot_rates(GammaRate(2.0, 1.0))

        def block(rng, n):
            return np.add.reduce(rates(rng, (n, width)) * weights, axis=1)

        ref, ref_next = _driven(width, block, runs)
        for scalars in _BLOCK_SIZES[1:]:
            got, got_next = _at_block_size(monkeypatch, scalars,
                                           lambda: _driven(width, block, runs))
            assert np.array_equal(got, ref)
            assert got_next == ref_next  # the same draws were consumed

    # runs past one chunk, at two block sizes, against the exact occupancy
    # tail; each run reads one word through the table of its law, so the
    # results do not depend on the block size.  Under det:1 service every
    # retention is 1, and the gamma occupancy is that of gamma_exact at alpha = 1
    @pytest.mark.parametrize("dist,service", [(TwoPoint(0.75, 1.0, 5.0), ExpService(0.5)),
                                              (DeterministicRate(2.0), ExpService(0.5)),
                                              (GammaRate(2.0, 1.0), DetService(1.0))],
                             ids=["twopoint", "det", "gamma"])
    @pytest.mark.parametrize("N", [1, 37, 100, 1000])
    def test_mc_Q(self, monkeypatch, dist, service, N):
        runs = _past_one_chunk(N)
        a = 1.05 * mean_load(dist, service)
        k = ceil_count(N * a)
        omegas = omega_vector(N, service)
        if isinstance(dist, TwoPoint):
            exact = math.fsum(twopoint_occupancy_pmf(dist.p, dist.lam1, dist.lam2, omegas)[k:])
        elif isinstance(dist, DeterministicRate):
            exact = poisson_tail(dist.lam * math.fsum(omegas), k)
        else:
            exact = P_exact(GammaCase(dist.beta, dist.lam, 1.0, a, N))
        got = mc_Q(dist, service, N, a, runs, 11)
        small = _at_block_size(monkeypatch, 999, lambda: mc_Q(dist, service, N, a, runs, 11))
        for result in (got, small):
            assert 0.0 < result.estimate < 1.0
            assert abs(result.estimate - exact) <= 4.0 * result.ci_halfwidth_95 / Z_95
        assert got == small

    # Poisson rates over runs past one chunk, against the exact occupancy tail
    @pytest.mark.parametrize("N", [1, 37, 100])
    def test_mc_Q_poisson_rates(self, N):
        service = ExpService(0.5)
        runs = _past_one_chunk(N)
        omegas = omega_vector(N, service)
        k = ceil_count(1.05 * N * mean_load(PoissonRate(12.0), service))
        exact = math.fsum(occupancy_pmf(12.0, omegas)[k:])
        got = mc_Q(PoissonRate(12.0), service, N, k / N, runs, 11)
        assert abs(got.estimate - exact) <= 4.0 * got.ci_halfwidth_95 / Z_95

    # two-point rates at q = 1 - p = 0.7 over runs past one chunk, against
    # the exact occupancy tail
    @pytest.mark.parametrize("N", [1, 37, 100])
    def test_mc_Q_twopoint_rates(self, N):
        service = ExpService(0.5)
        dist = TwoPoint(0.3, 1.0, 5.0)
        runs = _past_one_chunk(N)
        omegas = omega_vector(N, service)
        k = ceil_count(1.05 * N * mean_load(dist, service))
        exact = math.fsum(twopoint_occupancy_pmf(0.3, 1.0, 5.0, omegas)[k:])
        got = mc_Q(dist, service, N, k / N, runs, 11)
        assert abs(got.estimate - exact) <= 4.0 * got.ci_halfwidth_95 / Z_95

    # a run of any tabled law reads one raw word of the stream, in every
    # block: n runs advance the stream by exactly n words
    @pytest.mark.parametrize("dist,a", [(PoissonRate(2.0), 1.2602), (TP, 1.2991),
                                        (GammaRate(2.0, 1.0), 1.3), (DeterministicRate(2.0), 1.0)],
                             ids=["pois", "twopoint", "gamma", "det"])
    def test_runs_read_one_raw_word_each(self, monkeypatch, dist, a):
        runs = 3 * sampling._BLOCK_SCALARS + 17  # ending in a partial block
        assert queue._occupancy_law(dist, omega_vector(100, ExpService(0.5))) is not None
        assert _raw_words_read(
            monkeypatch, lambda n: mc_Q(dist, ExpService(0.5), 100, a, n, 11), runs)

    # the whole 4e6-scalar chunk of slot rates peaked at 63 MB; each run
    # reads one word through the table of its occupancy law.  At pois:200 the
    # mark-1 count, of mean 6486, is past the 2^12-entry bound of a count's
    # table, so the runs draw the marked counts with numpy; the peak is that
    # of the retention vector and the laws, whatever the runs
    @pytest.mark.parametrize("dist,a", [(PoissonRate(0.1), 0.16), (PoissonRate(200.0), 128.0),
                                        (TwoPoint(0.75, 1.0, 5.0), 1.4)],
                             ids=["pois", "pois-beyond-the-table-bound", "twopoint"])
    def test_mc_Q_peak_memory(self, dist, a):
        assert _traced_peak(lambda: mc_Q(dist, ExpService(1.0), 100, a, 40000, 3)) < 8e6

    # past the table bound two-point runs draw their N slot rates plainly:
    # at N = 10^6 the peak is the retention vector's, 32 MB traced, where
    # a table of partial sums per byte of Bernoulli lanes peaked at 276 MB
    def test_mc_Q_past_the_table_bound_peak_memory(self):
        assert queue._occupancy_law(TP, omega_vector(10**6, ExpService(0.5))) is None
        assert _traced_peak(lambda: mc_Q(TP, ExpService(0.5), 10**6, 0.9, 2, 3)) < 64e6

    # the slot laws are convolved widest first, in batches of at most
    # _BLOCK_SCALARS pmf values: one batch of all two-point slots peaked at
    # 127 MB traced where a few wide slots sit beside many narrow ones
    # (lam2 = 3000 under exp:0.001, N = 1000: the retention falls by a
    # factor e per slot over 739 slots), and at 47 MB for 20,000 narrow
    # slots; the law keeps the occupancy's mean and variance, for gamma
    # slot rates too
    @pytest.mark.parametrize("dist,service,N",
                             [(TwoPoint(0.5, 1000.0, 3000.0), ExpService(0.001), 1000),
                              (TwoPoint(0.75, 0.01, 0.05), ExpService(0.5), 20_000),
                              (GammaRate(2.0, 1.0), ExpService(0.5), 100),
                              (GammaRate(0.5, 0.01), ExpService(0.001), 1000),
                              (GammaRate(0.5, 10.0), ExpService(0.5), 5000)],
                             ids=["unequal-slots", "many-slots", "gamma", "gamma-unequal-slots",
                                  "gamma-many-slots"])
    def test_occupancy_law_build_peak_memory(self, dist, service, N):
        omegas = omega_vector(N, service)
        assert _traced_peak(lambda: queue._occupancy_law(dist, omegas)) < 8e6
        law = queue._occupancy_law(dist, omegas)
        law, v = law / math.fsum(law), np.arange(law.size)
        mean = math.fsum(v * law)
        assert mean == pytest.approx(dist.mean * omegas.sum(), rel=1e-12)
        assert math.fsum((v - mean) ** 2 * law) == pytest.approx(
            dist.mean * omegas.sum() + dist.variance * (omegas**2).sum(), rel=1e-12)

    # no array grows with the runs: at 2e6 runs, whole chunks of weights and
    # their squares peaked at 30.5 MiB (mc_P, is_slow) and 63 MiB (is_fast);
    # mc_Q runs 400,000 runs at N = 10, past one chunk of 4e6 scalars
    @pytest.mark.parametrize("estimate", [
        lambda: mc_P(EXP25, 1.2, 1.0, 10.0, 2 * 10**6, PART),
        lambda: is_slow(EXP25, 0.5, 2.0, 25.0, 2 * 10**6, PART),
        lambda: is_fast(EXP25, 1.2, 1.0, 10.0, 2 * 10**6, PART),
        lambda: mc_Q(PoissonRate(0.1), ExpService(1.0), 10, 0.16, 400_000, PART),
        lambda: mc_Q(TwoPoint(0.75, 1.0, 5.0), ExpService(1.0), 10, 1.4, 400_000, PART),
        lambda: mc_Q(GammaRate(2.0, 1.0), ExpService(1.0), 10, 1.6, 400_000, PART),
    ], ids=["mc_P", "is_slow", "is_fast", "mc_Q-pois", "mc_Q-twopoint", "mc_Q-gamma"])
    def test_estimator_peak_memory(self, estimate):
        assert _traced_peak(estimate) < 2**20


def _traced_peak(run):
    """The peak of the memory traced (tracemalloc) while ``run()`` runs, past
    the import of numpy.random by the first stream."""
    stream(0)
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _binned_deviations(draws, pmf):
    """z-scores of the frequencies of ``draws`` against ``pmf`` (over the
    values 0, 1, ...), in bins of consecutive values each holding at least
    1/64 of the mass, the last bin holding every value beyond."""
    edges, mass = [0], 0.0
    for v, p in enumerate(pmf):
        mass += p
        if mass >= 1.0 / 64:
            edges.append(v + 1)
            mass = 0.0
    edges[-1] = max(len(pmf), int(draws.max()) + 1)
    expected = np.array([math.fsum(pmf[lo:hi]) for lo, hi in zip(edges, edges[1:])])
    observed = np.histogram(draws, bins=edges)[0] / draws.size
    return (observed - expected) / np.sqrt(expected * (1.0 - expected) / draws.size)


def _poisson_pmf(mean):
    size = math.ceil(mean + 40.0 * math.sqrt(mean) + 40.0)
    return [math.exp(poisson_log_pmf(mean, v)) for v in range(size)]


def _binomial_pmf(n, q):
    return [math.exp(math.lgamma(n + 1.0) - math.lgamma(v + 1.0) - math.lgamma(n - v + 1.0)
                     + v * math.log(q) + (n - v) * math.log1p(-q)) for v in range(n + 1)]


class TestTabledCounts:
    """The pooled Poisson and binomial slot counts are one raw word each
    through an alias table, and numpy's sampler
    draws them past the table bound of 2^12 entries: 2^20 draws of each law
    meet its pmf within 4 SE in every bin."""

    @pytest.mark.parametrize("mean,tabled", [(0.1, True), (16.0, True), (128.0, True),
                                             (3500.0, True), (5000.0, False)])
    def test_poisson(self, mean, tabled):
        assert (sampling._poisson_laws(np.array([mean]))[0] is not None) == tabled
        draws = sampling._poisson_count(mean)(stream(21), 2**20)
        assert np.all(np.abs(_binned_deviations(draws, _poisson_pmf(mean))) <= 4.0)

    @pytest.mark.parametrize("q", [0.25, 0.7])
    @pytest.mark.parametrize("n", [1, 10, 4095, 4096])
    def test_binomial(self, n, q):
        draws = sampling._binomial_count(n, q)(stream(22), 2**20)
        assert np.all(np.abs(_binned_deviations(draws, _binomial_pmf(n, q))) <= 4.0)

    # at p below 2^-53 the weight 1 - p of lam2 rounds to 1: every slot is
    # at lam2, with no warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_binomial_law_at_a_certain_weight(self):
        assert np.array_equal(sampling._binomial_law(5, 1.0), [0, 0, 0, 0, 0, 1])
        assert mc_P(TwoPoint(1e-17, 1.0, 5.0), 1.0, 5.0, 5.0, 1000, PART).estimate > 0.5



class TestNegbinCounts:
    """With gamma slot rates the overflow count is negative binomial, and
    mc_P and is_slow draw it as one raw word per run through an alias table
    of its law (sampling._negbin_law), up to the table bound of 2^12
    entries; past it they draw the pooled rate and the k-th epoch."""

    # the oracle's lgamma rounding grows with the count, to 2.5e-12 relative
    # at counts past 1000 where the law itself stays within 3e-14 of 40-digit
    # values, so the grid keeps its counts below 700
    @pytest.mark.parametrize("shape,q", [(0.3, 0.6), (1.0, 0.9), (5.0, 5.0 / 5.5),
                                         (10**1.2, 0.2015), (30.0, 0.5)])
    def test_law_against_lgamma(self, shape, q):
        law = sampling._negbin_law(shape, q)
        law = law / math.fsum(law)
        exact = np.array([math.exp(negbin_log_pmf(shape, q, v)) for v in range(law.size)])
        shown = exact >= 1e-300
        assert np.all(np.abs(law[shown] / exact[shown] - 1.0) <= 1e-12)
        # the cut drops less than 2^-60 of the mass
        assert math.fsum(math.exp(negbin_log_pmf(shape, q, v))
                         for v in range(law.size, law.size + 20_000)) < 2.0**-60
        v = np.arange(law.size)
        mean = math.fsum(v * law)
        assert mean == pytest.approx(shape * q / (1.0 - q), rel=1e-12)
        assert math.fsum((v - mean) ** 2 * law) == pytest.approx(shape * q / (1.0 - q) ** 2,
                                                                 rel=1e-12)

    # crude runs at exp:1, alpha = 0.5 read one raw word each, in every
    # block, where the count of shape and scale sqrt(N) is tabled (mean N);
    # at N = 10^4 its table would pass 2^12 entries, and the runs draw the
    # pooled rate and the epoch
    @pytest.mark.parametrize("N,tabled", [(49.0, True), (10.0**4, False)])
    def test_crude_runs_read_one_raw_word_each(self, monkeypatch, N, tabled):
        c = math.sqrt(N)
        assert (sampling._negbin_law(c, c / (1.0 + c)) is not None) == tabled
        runs = 3 * sampling._BLOCK_SCALARS + 17  # ending in a partial block
        assert _raw_words_read(
            monkeypatch, lambda n: mc_P(Exponential(1.0), 0.5, 1.1, N, n, 11), runs) == tabled

    # is_slow at exp:2.5, alpha = 0.5, a = 2 twists the rate to 0.5: the
    # count has shape and scale sqrt(N) and mean 2 N, tabled at N = 49 and
    # past the bound at N = 900, the last point of Criterion 5's grid
    @pytest.mark.parametrize("N,tabled", [(49.0, True), (900.0, False)])
    def test_table_bound(self, N, tabled):
        c = math.sqrt(N)
        law = sampling._negbin_law(c, c / (0.5 + c))
        assert (law is not None) == tabled
        assert law is None or law.size <= 2**sampling._TABLE_BITS_MAX

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_warning_at_a_certain_weight_or_an_infinite_mean(self):
        assert sampling._negbin_law(5.0, 1.0 - 1e-17) is None  # q rounds to 1
        assert sampling._negbin_law(1.0, 1.0 - 2.0**-52) is None  # mean 4.5e15
        assert sampling._negbin_law(1e308, 0.9) is None  # the mean overflows
        assert sampling._negbin_law(1e-320, 0.5)[1:].sum() == 0.0  # a count of 0, surely
        # N^alpha = 1e-24 slots: c = 1e21 rounds q to 1, and the runs draw
        # the pooled rate and the epoch
        assert mc_P(Exponential(1.0), 8.0, 1.0, 1e-3, 1000, PART).estimate < 0.01
        with pytest.warns(RegimeWarning):
            r = is_slow(Exponential(1.0), 8.0, 2.0, 1e-3, 1000, PART)
        assert math.isfinite(r.estimate)

    # pooled over 20 seeds of 1e5 runs, against the exact tail: crude runs
    # by the exact binomial SE, twisted runs by their pooled sample SE.  The
    # grid holds fig2's crude cells, Criterion 5's slow grid, the gamma:2,1
    # pin and cells past the table bound; is_slow at alpha = 2, a fast
    # regime, has weights too heavy-tailed for 1e5 runs and is left out
    @pytest.mark.filterwarnings("ignore::mixpois.errors.RegimeWarning")
    @pytest.mark.parametrize("estimator,dist,alpha,a,N", [
        *[(mc_P, Exponential(1.0), 2.0, 2.0, N) for N in (2.0, 16.0, 64.0)],
        *[(estimator, EXP25, 0.5, 2.0, N) for estimator in (mc_P, is_slow)
          for N in (8.0, 25.0, 49.0)],
        (mc_P, GammaRate(2.0, 1.0), 0.3, 4.0, 30.0),
        (is_slow, GammaRate(2.0, 1.0), 0.3, 4.0, 30.0),
        (mc_P, Exponential(1.0), 0.5, 1.1, 10.0**4),
        (is_slow, EXP25, 0.5, 2.0, 900.0),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_within_four_se_pooled_over_twenty_seeds(self, estimator, dist, alpha, a, N):
        exact = P_exact(GammaCase(dist.beta, dist.lam, alpha, a, N))
        results = [estimator(dist, alpha, a, N, 10**5, seed) for seed in range(1000, 1020)]
        estimate = math.fsum(r.estimate for r in results) / len(results)
        if estimator is mc_P:
            se = math.sqrt(exact * (1.0 - exact) / (10**5 * len(results)))
        else:
            se = math.sqrt(math.fsum(r.sample_variance / r.runs for r in results)) / len(results)
        assert abs(estimate - exact) <= 4.0 * se
