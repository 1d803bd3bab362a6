import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpois.errors import BudgetError, DomainError, InfeasibleTargetError, RegimeWarning
from mixpois.gamma_exact import GammaCase, P_exact, p_exact
from mixpois.numerics import ceil_count
from mixpois.queue import ExpService, mc_Q, mean_load, omega_vector
from mixpois.rates import (DeterministicRate, Exponential, GammaRate, PoissonRate, TwoPoint,
                           rate_function)
from mixpois.sampling import (
    _CHUNK_SCALARS,
    Z_95,
    _slot_reduce,
    is_fast,
    is_slow,
    mc_P,
    stream,
)
from reference import (efficiency_ratios, occupancy_pmf, poisson_log_pmf, poisson_tail,
                       pooled_poisson_tail, pooled_twopoint_tail, twopoint_occupancy_pmf)

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
    """Two-point slot sums drawn as one binomial count, twisted or not, and
    deterministic ones formed without a draw, against the exact tails."""

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
    ], ids=["mc-twopoint", "is-slow-twopoint", "is-fast-twopoint", "mc-twopoint-37-slots",
            "mc-det", "mc-det-1-slot"])
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
        # at N = 1e-12 the threshold count is 0, so P = 1; a run whose pooled
        # rate is empty must keep its weight e^(N a) at z = 0
        r = is_fast(dist, 2.0, 3.0, 1e-12, 100_000, 0)
        assert r.estimate == pytest.approx(1.0, abs=1e-9)


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


def _whole_chunk(sample, rng, m, width, reduce):
    """Reference for _slot_reduce: all m * width slot draws of the chunk at
    once, reduced in one call."""
    return reduce(sample(rng, m * width).reshape(m, width))


def _whole_chunk_result(monkeypatch, estimate):
    """``estimate()`` with every chunk's slot draws drawn and reduced whole."""
    with monkeypatch.context() as patch:
        patch.setattr("mixpois.queue._slot_reduce", _whole_chunk)
        return estimate()


def _chunk_rows(width):
    return _CHUNK_SCALARS // (width + 1)


class TestSlotBlocks:
    """Drawing and reducing the slot rates block by block gives the results
    of the whole chunk, bit for bit."""

    @pytest.mark.parametrize("width", [1, 10, 37, 1000, 2049, 10**5])
    def test_sums_and_stream_match(self, width):
        m = min(_chunk_rows(width), 5000)
        block, whole = stream(4), stream(4)
        sample = GammaRate(2.0, 1.0).sample
        weights = np.linspace(0.1, 1.0, width)  # as mc_Q weighs slots by retention
        got = _slot_reduce(sample, block, m, width, lambda x: (x * weights).sum(axis=1))
        ref = _whole_chunk(sample, whole, m, width, lambda x: (x * weights).sum(axis=1))
        assert np.array_equal(got, ref)
        assert block.random() == whole.random()  # the same draws were consumed

    # runs past one chunk, whose first and last chunks end in partial blocks;
    # Poisson rates draw marked counts instead of slot rates (below)
    @pytest.mark.parametrize("dist", [TwoPoint(0.75, 1.0, 5.0), DeterministicRate(2.0),
                                      GammaRate(2.0, 1.0)],
                             ids=["twopoint", "det", "gamma"])
    @pytest.mark.parametrize("N", [1, 37, 100, 1000])
    def test_mc_Q(self, monkeypatch, dist, N):
        service = ExpService(0.5)
        runs = _chunk_rows(N) + 1000 + N
        a = 1.05 * mean_load(dist, service)
        got = mc_Q(dist, service, N, a, runs, 11)
        assert got == _whole_chunk_result(monkeypatch, lambda: mc_Q(dist, service, N, a, runs, 11))
        assert 0.0 < got.estimate < 1.0

    # Poisson rates over runs past one chunk, against the exact occupancy tail
    @pytest.mark.parametrize("N", [1, 37, 100])
    def test_mc_Q_poisson_rates(self, N):
        service = ExpService(0.5)
        runs = _chunk_rows(N) + 1000 + N
        omegas = omega_vector(N, service)
        k = ceil_count(1.05 * N * mean_load(PoissonRate(12.0), service))
        exact = math.fsum(occupancy_pmf(12.0, omegas)[k:])
        got = mc_Q(PoissonRate(12.0), service, N, k / N, runs, 11)
        assert abs(got.estimate - exact) <= 4.0 * got.ci_halfwidth_95 / Z_95

    # two-point rates at q = 0.7 over runs past one chunk, against the exact
    # occupancy tail; at this q the length of the lane loop depends on the block
    @pytest.mark.parametrize("N", [1, 37, 100])
    def test_mc_Q_twopoint_rates(self, N):
        service = ExpService(0.5)
        dist = TwoPoint(0.3, 1.0, 5.0)
        runs = _chunk_rows(N) + 1000 + N
        omegas = omega_vector(N, service)
        k = ceil_count(1.05 * N * mean_load(dist, service))
        exact = math.fsum(twopoint_occupancy_pmf(0.3, 1.0, 5.0, omegas)[k:])
        got = mc_Q(dist, service, N, k / N, runs, 11)
        assert abs(got.estimate - exact) <= 4.0 * got.ci_halfwidth_95 / Z_95

    # the whole 4e6-scalar chunk of slot rates peaked at 63 MB; Poisson rates
    # draw marked counts, two-point rates words of Bernoulli lanes, summed by
    # byte tables.  At pois:200 the mark-1 count, of mean 6486, is past the
    # 2^12-entry bound of the alias tables and the others are tabled
    @pytest.mark.parametrize("dist,a", [(PoissonRate(0.1), 0.16), (PoissonRate(200.0), 128.0),
                                        (TwoPoint(0.75, 1.0, 5.0), 1.4)],
                             ids=["pois", "pois-beyond-the-table-bound", "twopoint"])
    def test_mc_Q_peak_memory(self, dist, a):
        tracemalloc.start()
        try:
            mc_Q(dist, ExpService(1.0), 100, a, 40000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
