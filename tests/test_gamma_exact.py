import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpois.errors import ConvergenceError, DomainError, RegimeError, TruncationBoundaryWarning
from mixpois.gamma_exact import (
    GammaCase,
    P_exact,
    _log_pmf,
    _log_pmf_sum,
    fast_series_coefficients,
    log_P_exact,
    log_p_exact,
    p_asym_fast,
    p_asym_intermediate,
    p_asym_slow,
    p_exact,
    slow_series_coefficients,
)
from mixpois.rates import Exponential
from mixpois.sampling import stream
from mixpois.tail_asymptotics import approx_fast, approx_intermediate, approx_slow_case1


def case(beta=1.0, lam=1.0, alpha=1.0, a=1.0, N=1.0):
    return GammaCase(beta=beta, lam=lam, alpha=alpha, a=a, N=N)


class TestExactPoint:
    def test_geometric_start(self):
        assert p_exact(case(a=0.0)) == pytest.approx(0.5, rel=1e-14)

    def test_geometric_at_one(self):
        assert p_exact(case(a=1.0)) == pytest.approx(0.25, rel=1e-14)

    def test_mass_sums_to_one(self):
        c0 = case(beta=1.0, lam=1.3, alpha=0.7, a=0.0, N=3.0)
        total = sum(p_exact(case(beta=1.0, lam=1.3, alpha=0.7, a=k / 3.0, N=3.0)) for k in range(400))
        assert total == pytest.approx(1.0, abs=1e-10)
        assert P_exact(c0) == 1.0

    @pytest.mark.parametrize("alpha,a,N", [(3.0, 5.0, 1e308), (1.0, 1e300, 1e10)])
    def test_non_finite_shape_or_count_rejected(self, alpha, a, N):
        with pytest.raises(DomainError, match="must be finite"):
            case(alpha=alpha, a=a, N=N)

    def test_non_finite_log_probability_raises(self):
        # log_gamma(k + r) overflows at k = 1e308, and the difference is NaN
        with pytest.raises(ConvergenceError):
            log_p_exact(case(beta=2.0, alpha=1.0, a=1e300, N=1e8))

    def test_fractional_count_rejected(self):
        with pytest.raises(DomainError):
            p_exact(case(a=0.77, N=10.0))

    # mpmath at 60 digits with the package's shape r = exp(alpha log N): at
    # these pooled shapes (5.05e17 and 1e12) log Gamma(k + r) - log Gamma(r)
    # and r log(1 - q) cancel unless summed termwise and taken by log1p
    @pytest.mark.parametrize("lam,alpha,a,N,reference", [
        (1.0, 17.0, 1.72727272727, 11.0, -4.77987400403042),
        (2.5, 4.0, 1.0, 1000.0, -320.663631200682),
    ])
    def test_large_pooled_shape(self, lam, alpha, a, N, reference):
        assert log_p_exact(case(lam=lam, alpha=alpha, a=a, N=N)) == pytest.approx(reference,
                                                                                   abs=1e-9)

    # mpmath at 60 digits with the package's shape r: counts above 1e6 and
    # below the pooled shape (8e18 and 1e12), where log Gamma(k + r) -
    # log Gamma(r) cancels to noise and Stirling's series takes its place
    @pytest.mark.parametrize("alpha,a,N,reference", [
        (3.0, 1.5, 2e6, -216403.700324417889),
        (2.0, 2.0, 1e6, -386302.034389002394),
    ])
    def test_count_above_termwise_range_below_shape(self, alpha, a, N, reference):
        assert log_p_exact(case(lam=1.0, alpha=alpha, a=a, N=N)) == pytest.approx(reference,
                                                                                   rel=1e-12)

    def test_non_integer_pooled_shape(self):
        # N^alpha need not be an integer; compare against a fine mixture sum
        c = case(beta=1.0, lam=2.0, alpha=0.5, a=1.0, N=8.0)
        assert 0.0 < p_exact(c) < 1.0

    def test_monte_carlo_cross_check(self):
        # gamma-mixed Poisson sampling in the distribution bulk
        beta, lam, alpha, a, N = 1.0, 1.0, 1.0, 1.0, 4.0
        runs = 10**7
        rng = stream(99)
        pooled = rng.gamma(N**alpha * beta, 1.0 / lam, size=runs)
        z = rng.poisson(N ** (1.0 - alpha) * pooled)
        k = round(N * a)
        hits = float(np.mean(z == k))
        se = math.sqrt(hits * (1.0 - hits) / runs)
        assert abs(hits - p_exact(case(beta, lam, alpha, a, N))) < 4.0 * se


class TestExactTail:
    def test_full_mass(self):
        assert P_exact(case(a=0.0)) == 1.0

    def test_geometric_tail(self):
        assert P_exact(case(a=1.0)) == pytest.approx(0.5, rel=1e-13)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=1.0, lam=2.5, alpha=0.5, a=2.0, N=9.0),
            dict(beta=1.0, lam=1.0, alpha=2.0, a=2.0, N=6.0),
            dict(beta=2.0, lam=1.5, alpha=1.0, a=3.0, N=5.0),
        ],
    )
    def test_telescoping(self, kwargs):
        c = case(**kwargs)
        c_next = case(**{**kwargs, "a": kwargs["a"] + 1.0 / kwargs["N"]})
        assert P_exact(c) - P_exact(c_next) == pytest.approx(p_exact(c), rel=1e-13)

    def test_fractional_count_rounds_up(self):
        # {count >= 10.5} is {count >= 11}
        assert P_exact(case(lam=2.5, a=1.05, N=10.0)) == P_exact(case(lam=2.5, a=1.1, N=10.0))

    def test_against_brute_sum(self):
        c = case(beta=1.0, lam=2.0, alpha=0.8, a=2.0, N=5.0)
        brute = sum(p_exact(case(beta=1.0, lam=2.0, alpha=0.8, a=k / 5.0, N=5.0)) for k in range(10, 600))
        assert P_exact(c) == pytest.approx(brute, rel=1e-12)


def _term_by_term_tail(c):
    """(log P, index of the stopping count past N*a) from a one-term-per-
    iteration loop under log_P_exact's stopping rule, with math.log."""
    k0 = c.count
    if k0 == 0:
        return 0.0, 0
    r = c.shape
    log_q, _ = c._log_q()
    q = math.exp(log_q)
    log_term = _log_pmf(c, k0)
    log_sum = log_term
    k = k0
    while True:
        ratio_sup = max(q * (k + r) / (k + 1.0), q)
        if ratio_sup < 1.0:
            log_remainder_bound = log_term + math.log(ratio_sup) - math.log1p(-ratio_sup)
            if log_remainder_bound < log_sum + math.log(1e-14):
                return log_sum, k - k0
        k += 1
        log_term += log_q + math.log((k - 1.0 + r) / k)
        log_sum = float(np.logaddexp(log_sum, log_term))


class TestChunkedTail:
    # chunks test 64, 128, 256, ... counts, so the stops at 63/64 and
    # 191/192 sit on either side of a chunk boundary
    @pytest.mark.parametrize("kwargs,stop", [
        (dict(a=0.0, N=10.0), 0),
        (dict(lam=1e15, N=10.0), 0),
        (dict(lam=1.068197, N=10.0), 63),
        (dict(lam=1.047372, N=10.0), 64),
        (dict(lam=1.028018, N=10.0), 65),
        (dict(lam=0.310617, N=10.0), 191),
        (dict(lam=0.309011, N=10.0), 192),
        (dict(lam=0.0008, N=10.0), 69772),  # past one 2^16-count chunk
        (dict(lam=2.5, N=1e16), 64),  # counts above 2^53
        (dict(beta=2.0, lam=1.5, a=3.0, N=5.0), None),
        # P near 1: numpy's log of the term ratios moves these in the last bits
        (dict(lam=0.5, alpha=1.5, a=0.5, N=10.0), 81),
        (dict(lam=0.5, alpha=1.5, a=1.0, N=10.0), 76),
        # the benchmark's tails
        (dict(lam=2.5, alpha=0.5, N=1e2), None),
        (dict(lam=2.5, alpha=0.5, N=1e3), None),
        (dict(lam=2.5, alpha=0.5, N=1e4), 2043),
        (dict(lam=2.5, N=1e2), None),
        (dict(lam=2.5, N=1e3), None),
    ])
    def test_matches_term_by_term(self, kwargs, stop):
        # the upward chunked sum, which log_P_exact takes at and above the mean
        c = case(**kwargs)
        reference, index = _term_by_term_tail(c)
        assert stop is None or index == stop
        upward = _log_pmf_sum(c, c.count, 1) if c.count else 0.0
        assert abs(upward - reference) <= 1e-14 * max(1.0, abs(reference))

    def test_term_cap(self, monkeypatch):
        monkeypatch.setattr("mixpois.gamma_exact._MAX_TAIL_TERMS", 200)
        assert _log_pmf_sum(case(lam=0.309011, N=10.0), 10, 1) == _term_by_term_tail(
            case(lam=0.309011, N=10.0))[0]
        with pytest.raises(ConvergenceError, match="did not terminate"):
            _log_pmf_sum(case(lam=0.0008, N=10.0), 10, 1)

    # the upward sum rounds above 1 here, to log P = +1.99e-13 and +3.1e-12;
    # below the mean log_P_exact takes 1 minus the sum below the count
    @pytest.mark.parametrize("c", [case(beta=2.0, lam=0.1, alpha=1.0, a=0.5, N=50.0),
                                   case(lam=0.0008, N=10.0)])
    def test_never_above_one(self, c):
        assert _term_by_term_tail(c)[0] > 0.0
        below = math.fsum(math.exp(_log_pmf(c, j)) for j in range(c.count))
        assert log_P_exact(c) == pytest.approx(-below, rel=1e-12)
        assert P_exact(c) == 1.0

    def test_far_below_the_mean(self):
        # the upward sum took 1.57e7 counts and drifted to log P = -3.8095e-10;
        # 40-digit mpmath gives -9.9e-1475, which rounds to -0.0
        c = GammaCase(1.7528195114853455, 0.003136249572842862, 0.8315686640754378,
                      4.301622831561276, 1787.0)
        assert log_P_exact(c) == 0.0

    def test_below_the_mean_pinned(self):
        # 1 - sum_{j<70} of the negative binomial pmf at shape 15, 50-digit mpmath
        c = case(beta=1.5, lam=2.0, alpha=0.5, a=0.7, N=100.0)
        assert c.count < c.N * c.beta / c.lam
        assert P_exact(c) == pytest.approx(
            0.57073051710287369169164702356412533507032946431994, rel=1e-12)

    # downward from below the mode, through chunk boundaries; at shape 0.5 the
    # terms grow toward count 0 and the whole sum is taken
    @pytest.mark.parametrize("c", [case(beta=0.5, lam=0.001, alpha=1.0, a=30.0, N=10.0),
                                   case(beta=0.5, lam=0.001, alpha=1.0, a=200.0, N=1.0),
                                   case(beta=3.0, lam=0.02, alpha=0.5, a=9.0, N=100.0)])
    def test_downward_sum_matches_brute_sum(self, c):
        below = math.fsum(math.exp(_log_pmf(c, j)) for j in range(c.count))
        assert math.exp(_log_pmf_sum(c, c.count - 1, -1)) == pytest.approx(below, rel=1e-12)
        assert log_P_exact(c) == pytest.approx(math.log1p(-below), rel=1e-12)

    def test_stalled_terms_raise_at_once(self):
        # at |log term| near 2e16 every log increment is below the rounding,
        # so the terms never shrink; the first chunk shows it
        with pytest.raises(ConvergenceError, match="stopped changing at count 1e\\+17"):
            log_P_exact(case(lam=2.5, N=1e17))


class TestSeriesCoefficients:
    def test_leading_constants(self):
        c = case(lam=2.5, alpha=5.0, a=1.0, N=40.0)
        fast = fast_series_coefficients(c)
        assert fast.values[0] == pytest.approx(-1.0 * math.log(2.5) + 1.0 - 0.4, rel=1e-14)
        c = case(lam=2.5, alpha=0.2, a=1.0, N=160.0)
        slow = slow_series_coefficients(c)
        assert slow.values[0] == pytest.approx(math.log(2.5) + 1.0 - 2.5, rel=1e-14)

    def test_truncation_orders(self):
        assert fast_series_coefficients(case(alpha=5.0, a=2.0, N=4.0)).order == 0
        assert fast_series_coefficients(case(alpha=1.8, a=2.0, N=4.0)).order == 1
        assert slow_series_coefficients(case(alpha=0.2, a=2.0, N=5.0)).order == 0
        assert slow_series_coefficients(case(alpha=0.7, a=10.0, N=10.0)).order == 2

    def test_orders_jump_exactly_at_boundaries(self):
        # fast: jumps at alpha = 1 + 1/m; slow: at alpha = m/(m+1)
        eps = 1e-6
        for m in (1, 2, 3):
            alpha_jump = 1.0 + 1.0 / m
            with pytest.warns(TruncationBoundaryWarning):
                at = fast_series_coefficients(case(alpha=alpha_jump, a=2.0, N=4.0)).order
            below = fast_series_coefficients(case(alpha=alpha_jump - eps, a=2.0, N=4.0)).order
            above = fast_series_coefficients(case(alpha=alpha_jump + eps, a=2.0, N=4.0)).order
            assert (below, at, above) == (m, m, m - 1)
        for m in (1, 2, 3):
            alpha_jump = m / (m + 1.0)
            below = slow_series_coefficients(case(alpha=alpha_jump - eps, a=2.0, N=5.0)).order
            above = slow_series_coefficients(case(alpha=alpha_jump + eps, a=2.0, N=5.0)).order
            assert (below, above)[1] >= (below, above)[0]
            assert above - below in (0, 1)  # floor jumps by one at the boundary

    def test_jump_discontinuity_is_the_marginal_term(self):
        # the value jump across a truncation boundary equals the dropped
        # term, which decays only glacially; reconciling with that term
        # restores continuity to near machine precision
        import warnings

        lam, a, N = 2.5, 1.0, 1e6
        eps = 1e-12
        below = case(lam=lam, alpha=1.25 - eps, a=a, N=N)
        above = case(lam=lam, alpha=1.25 + eps, a=a, N=N)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationBoundaryWarning)
            log_below = p_asym_fast(below).log_value
            log_above = p_asym_fast(above).log_value
            coeff = fast_series_coefficients(below)
        k = coeff.order
        assert k == 4
        marginal = coeff.values[k] * N ** ((1.0 - below.alpha) * k + 1.0)
        assert abs(marginal) > 0.01  # the jump itself is far from negligible
        assert log_below - (log_above + marginal) == pytest.approx(0.0, abs=1e-6)

    @given(lam=st.floats(min_value=0.3, max_value=5.0), a_mult=st.floats(min_value=1.01, max_value=8.0))
    @settings(max_examples=100, deadline=None)
    def test_slow_leading_constant_negative(self, lam, a_mult):
        a = a_mult / lam
        coeff = slow_series_coefficients(case(lam=lam, alpha=0.3, a=a, N=10.0))
        assert coeff.values[0] < 0.0


class TestSeriesValues:
    @pytest.mark.parametrize("series,alpha", [(p_asym_fast, 1.0 + 1e-6), (p_asym_slow, 1.0 - 1e-6)])
    def test_too_many_terms_raise(self, series, alpha):
        # a million correction terms: refused instead of summed
        with pytest.raises(ConvergenceError, match="correction terms"):
            series(case(lam=1.0, alpha=alpha, a=2.0, N=10.0))

    def test_overflowing_coefficient_raises(self):
        # a^(k+1) leaves the float range at k = 1
        with pytest.raises(ConvergenceError, match="overflows"):
            p_asym_fast(case(lam=1.0, alpha=1.4, a=1.3407807929942597e154, N=1.0))

    def test_fast_alpha_above_two_matches_plain_formula(self):
        c = case(lam=2.5, alpha=5.0, a=1.0, N=40.0)
        series = p_asym_fast(c)
        _, plain = approx_fast(Exponential(2.5), 5.0, 1.0, 40.0)
        assert series.log_value == pytest.approx(plain.log_value, abs=1e-12)

    def test_slow_small_alpha_matches_plain_formula(self):
        c = case(lam=2.5, alpha=0.2, a=1.0, N=160.0)
        series = p_asym_slow(c)
        _, plain = approx_slow_case1(Exponential(2.5), 0.2, 1.0, 160.0)
        assert series.log_value == pytest.approx(plain.log_value, abs=1e-12)

    def test_intermediate_matches_compound_route(self):
        for a, N in ((1.0, 7.0), (2.0, 100.0)):
            c = case(lam=2.5, alpha=1.0, a=a, N=N)
            _, point = approx_intermediate(Exponential(2.5), a, N)
            assert p_asym_intermediate(c).log_value == pytest.approx(point.log_value, abs=1e-12)

    def test_intermediate_close_to_exact(self):
        c = case(lam=2.5, alpha=1.0, a=1.0, N=100.0)
        ratio = math.exp(p_asym_intermediate(c).log_value - log_p_exact(c))
        assert abs(ratio - 1.0) < 0.05

    def test_intermediate_exponent_nonnegative(self):
        for lam, a in ((2.5, 1.0), (1.0, 2.0)):
            exponent = a * math.log(a * (1.0 + lam) / (1.0 + a)) + math.log(
                (1.0 + lam) / (lam * (1.0 + a))
            )
            assert exponent >= 0.0
        # zero exactly at the mean rate
        lam = 2.5
        a = 1.0 / lam
        exponent = a * math.log(a * (1.0 + lam) / (1.0 + a)) + math.log((1.0 + lam) / (lam * (1.0 + a)))
        assert exponent == pytest.approx(0.0, abs=1e-14)

    def test_fast_band_converges_to_exact(self):
        # two correction terms are active at alpha = 1.5
        with pytest.warns(TruncationBoundaryWarning):
            ratios = [
                math.exp(
                    p_asym_fast(case(lam=2.5, alpha=1.5, a=1.0, N=N)).log_value
                    - log_p_exact(case(lam=2.5, alpha=1.5, a=1.0, N=N))
                )
                for N in (100.0, 1000.0, 10000.0)
            ]
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
        assert abs(ratios[-1] - 1.0) < 0.005

    def test_ratio_trends(self):
        fast = [
            math.exp(p_asym_fast(c).log_value - log_p_exact(c))
            for c in (case(lam=2.5, alpha=5.0, a=1.0, N=N) for N in (5.0, 10.0, 20.0, 40.0))
        ]
        slow = [
            math.exp(p_asym_slow(c).log_value - log_p_exact(c))
            for c in (case(lam=2.5, alpha=0.2, a=1.0, N=N) for N in (20.0, 40.0, 80.0, 160.0))
        ]
        for seq in (fast, slow):
            devs = [abs(r - 1.0) for r in seq]
            assert devs == sorted(devs, reverse=True)

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            p_asym_fast(case(lam=2.5, alpha=0.5, a=1.0, N=10.0))
        with pytest.raises(RegimeError):
            p_asym_slow(case(lam=2.5, alpha=1.5, a=1.0, N=10.0))
        with pytest.raises(RegimeError):
            p_asym_intermediate(case(lam=2.5, alpha=0.9, a=1.0, N=10.0))

    def test_series_need_exponential_slots(self):
        with pytest.raises(DomainError):
            p_asym_fast(case(beta=2.0, lam=2.5, alpha=5.0, a=1.0, N=10.0))
        with pytest.raises(DomainError):
            p_asym_slow(case(lam=2.5, alpha=0.2, a=0.1, N=10.0))  # a below 1/lam
