import math

import pytest

from mixpois.errors import DomainError
from mixpois.poisson_ldp import ceil_count, exact_count, poisson_rate
from reference import poisson_log_pmf, poisson_tail


class TestCountConventions:
    def test_ceil(self):
        assert ceil_count(0.0) == 0
        assert ceil_count(3.0) == 3
        assert ceil_count(3.2) == 4
        assert ceil_count(3.0000000001) == 3  # snaps within 1e-9
        assert ceil_count(2.9999999999) == 3

    def test_exact(self):
        assert exact_count(4.0) == 4
        assert exact_count(4.0 + 5e-10) == 4
        with pytest.raises(DomainError):
            exact_count(4.3)

    @pytest.mark.parametrize("count", [ceil_count, exact_count])
    @pytest.mark.parametrize("n_times_a", [math.inf, math.nan, -1.0])
    def test_rejects_non_finite_and_negative(self, count, n_times_a):
        with pytest.raises(DomainError):
            count(n_times_a)


class TestPoissonRatePoint:
    def test_no_deviation(self):
        assert poisson_rate(1.0, 1.0).rate == 0.0

    def test_example_values(self):
        p = poisson_rate(2.0, 1.0)
        assert p.rate == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-14)
        assert p.theta_star == pytest.approx(math.log(2.0), rel=1e-14)
        assert p.prefactor == pytest.approx(1.0 / (0.5 * math.sqrt(4.0 * math.pi)), rel=1e-12)

    def test_prefactor_only_for_upper_tail(self):
        assert poisson_rate(1.0, 2.0).prefactor is None
        assert poisson_rate(2.0, 1.0).prefactor > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            poisson_rate(0.0, 1.0)
        with pytest.raises(DomainError):
            poisson_rate(1.0, -1.0)


class TestExactTails:
    @pytest.mark.parametrize("mean,k,tail", [
        # mpmath gammainc(k, 0, mean, regularized=True) at 40 digits
        (10.0, 20, 0.003454341975856807682166258),
        (1000.0, 2000, 3.058192080168756795018762e-170),
    ])
    def test_oracle_pins(self, mean, k, tail):
        assert poisson_tail(mean, k) == pytest.approx(tail, rel=1e-12)

    def test_sharp_constant_is_the_tail_limit(self):
        # the tail scaled by e^{N I} sqrt(N) must settle on the implemented
        # prefactor (positive form), not on its sign-flipped variant
        ldp = poisson_rate(2.0, 1.0)
        ratios = []
        for N in (125, 250, 500, 1000):
            scaled = poisson_tail(N, 2 * N) * math.exp(N * ldp.rate) * math.sqrt(N)
            ratios.append(scaled / ldp.prefactor)
        assert 0.95 < ratios[-2] < 1.05
        assert abs(ratios[-1] - 1.0) < abs(ratios[-2] - 1.0)
        flipped = -1.0 / math.expm1(ldp.theta_star) / math.sqrt(4.0 * math.pi)
        assert abs(poisson_tail(500, 1000) * math.exp(500 * ldp.rate) * math.sqrt(500) / flipped - 1.0) > 0.4

    def test_point_to_tail_ratio_limit(self):
        # pmf/tail approaches 1 - e^{-theta*}
        ldp = poisson_rate(2.0, 1.0)
        limit = -math.expm1(-ldp.theta_star)
        devs = [abs(math.exp(poisson_log_pmf(N, 2 * N)) / poisson_tail(N, 2 * N) - limit)
                for N in (50, 200, 800)]
        assert devs[-1] < devs[0]
        assert devs[-1] < 1e-3  # drift is O(1/N)
