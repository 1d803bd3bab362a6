import math

import pytest

from mixpois.errors import DomainError, InfeasibleTargetError
from mixpois.poisson_ldp import (
    ceil_count,
    compound_z,
    exact_count,
    log_pmf_poisson,
    pmf_exact,
    poisson_rate,
    psi_exact,
)
from mixpois.rates import DeterministicRate, Exponential, GammaRate, PoissonRate, TwoPoint


def poisson_tail_by_summation(mean: float, k: int) -> float:
    """Independent oracle: 1 minus the pmf sum below k."""
    return 1.0 - sum(math.exp(j * math.log(mean) - mean - math.lgamma(j + 1)) for j in range(k))


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
    def test_tail_at_zero(self):
        assert psi_exact(5.0, 0.0, 3.7) == 1.0

    def test_unit_example(self):
        assert psi_exact(1.0, 1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_against_summation_oracle(self):
        value = psi_exact(10.0, 2.0, 1.0)
        assert value == pytest.approx(poisson_tail_by_summation(10.0, 20), rel=1e-12)
        assert value == pytest.approx(3.4543e-3, rel=1e-4)

    @pytest.mark.parametrize("N,a,x", [(7.0, 1.5, 1.0), (30.0, 0.5, 0.4), (100.0, 2.0, 1.3)])
    def test_summation_oracle_grid(self, N, a, x):
        k = math.ceil(N * a - 1e-9)
        assert psi_exact(N, a, x) == pytest.approx(poisson_tail_by_summation(N * x, k), rel=1e-11)

    def test_pmf(self):
        assert pmf_exact(10.0, 2.0, 1.0) == pytest.approx(
            math.exp(20.0 * math.log(10.0) - 10.0 - math.lgamma(21.0)), rel=1e-13
        )
        with pytest.raises(DomainError):
            pmf_exact(10.0, 1.55, 1.0)

    def test_pmf_zero_mean(self):
        assert log_pmf_poisson(0.0, 0) == 0.0
        assert log_pmf_poisson(0.0, 3) == -math.inf

    def test_sharp_constant_is_the_tail_limit(self):
        # the tail scaled by e^{N I} sqrt(N) must settle on the implemented
        # prefactor (positive form), not on its sign-flipped variant
        ldp = poisson_rate(2.0, 1.0)
        ratios = []
        for N in (125.0, 250.0, 500.0, 1000.0):
            scaled = psi_exact(N, 2.0, 1.0) * math.exp(N * ldp.rate) * math.sqrt(N)
            ratios.append(scaled / ldp.prefactor)
        assert 0.95 < ratios[-2] < 1.05
        assert abs(ratios[-1] - 1.0) < abs(ratios[-2] - 1.0)
        flipped = -1.0 / math.expm1(ldp.theta_star) / math.sqrt(4.0 * math.pi)
        assert abs(psi_exact(500.0, 2.0, 1.0) * math.exp(500.0 * ldp.rate) * math.sqrt(500.0) / flipped - 1.0) > 0.4

    def test_point_to_tail_ratio_limit(self):
        # pmf/psi approaches 1 - e^{-theta*}
        ldp = poisson_rate(2.0, 1.0)
        limit = -math.expm1(-ldp.theta_star)
        devs = [abs(pmf_exact(N, 2.0, 1.0) / psi_exact(N, 2.0, 1.0) - limit) for N in (50.0, 200.0, 800.0)]
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
