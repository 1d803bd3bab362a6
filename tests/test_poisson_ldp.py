import math

import pytest

from mixpois.errors import DomainError, InfeasibleTargetError
from mixpois.poisson_ldp import ceil_count, compound_z, exact_count, poisson_rate
from mixpois.rates import DeterministicRate, Exponential, GammaRate, PoissonRate, TwoPoint
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


class TestCompoundZ:
    def test_exponential_closed_form(self):
        z = compound_z(Exponential(2.5), 1.0)
        assert math.exp(z.theta_star) == pytest.approx(1.0 * 3.5 / 2.0, rel=1e-11)
        assert z.variance_at_tilt == pytest.approx(1.0 * (1.0 + 1.0), rel=1e-11)

    @pytest.mark.parametrize("lam,a", [(2.5, 1.0), (1.0, 2.0), (0.7, 4.0)])
    def test_exponential_tilt_identity(self, lam, a):
        z = compound_z(Exponential(lam), a)
        assert math.exp(z.theta_star) == pytest.approx(a * (1.0 + lam) / (1.0 + a), rel=1e-11)
        assert z.variance_at_tilt == pytest.approx(a * (1.0 + a), rel=1e-10)

    @pytest.mark.parametrize("dist", [Exponential(2.5), GammaRate(2.0, 1.0)],
                             ids=lambda d: d.label())
    @pytest.mark.parametrize("excess", [1e-1, 1e-3, 1e-5])
    def test_gamma_closed_form_near_zero_tilt(self, dist, excess):
        # u* = a(lam + 1)/(a + beta), rate = a log u* + beta log1p(-(u* - 1)/lam);
        # the rate is O(excess^2), so the CGF must keep its relative accuracy
        # as the tilt goes to zero
        beta, lam = dist.beta, dist.lam
        a = dist.mean + excess
        u = a * (lam + 1.0) / (a + beta)
        rate = a * math.log(u) + beta * math.log1p(-(u - 1.0) / lam)
        assert compound_z(dist, a).rate == pytest.approx(rate, rel=1e-9, abs=0.0)

    def test_deterministic_reduces_to_poisson(self):
        z = compound_z(DeterministicRate(1.0), 2.0)
        p = poisson_rate(2.0, 1.0)
        assert z.rate == pytest.approx(p.rate, abs=1e-12)
        assert z.theta_star == pytest.approx(p.theta_star, abs=1e-12)
        assert z.variance_at_tilt == pytest.approx(2.0, abs=1e-11)

    @pytest.mark.parametrize(
        "dist,a",
        [
            (Exponential(2.5), 1.0),
            (PoissonRate(2.0), 3.5),
            (TwoPoint(0.75, 1.0, 5.0), 3.0),
            (TwoPoint(0.75, 1.0, 5.0), 7.0),  # reachable: Pois(X) has unbounded support
        ],
    )
    def test_duality(self, dist, a):
        z = compound_z(dist, a)
        assert z.theta_star * a - dist.cgf(math.expm1(z.theta_star))[0] - z.rate == pytest.approx(
            0.0, abs=1e-10
        )
        assert z.variance_at_tilt > 0.0

    def test_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            compound_z(Exponential(2.5), 0.3)
