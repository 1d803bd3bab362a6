import math

import pytest

from mixpois.errors import (
    ConvergenceError,
    DomainError,
    InfeasibleTargetError,
    LatticeError,
    RegimeError,
)
from mixpois import queue
from mixpois.rates import (
    DeterministicRate,
    Exponential,
    GammaRate,
    PoissonRate,
    TwoPoint,
    bahadur_rao_constant,
    rate_function,
)
from mixpois.tail_asymptotics import (
    AsymptoticValue,
    approx_auto,
    approx_fast,
    approx_intermediate,
    approx_slow_case1,
    approx_slow_case2,
    log_asym_P,
    _point_mass_count,
)
from reference import poisson_log_pmf, poisson_tail

EXP25 = Exponential(2.5)


def compound_count(dist, a):
    """Tilt and tilted variance of the compound count Pois(X) at level a,
    from the one-node occupancy solve behind the balanced regime."""
    theta, integrals = queue._solve_tilt(dist, queue._UNIT_RULE, a, queue._cold_hint(dist))
    approx = queue._approx_from(1.0, theta, a, integrals, checked=True)
    return theta, approx.sigma2


class TestLogAsym:
    def test_fast_rate_is_poisson_layer(self):
        decay = log_asym_P(PoissonRate(2.0), 2.0, 3.0)
        assert decay.rate == pytest.approx(rate_function(PoissonRate(2.0), 3.0).value, rel=1e-14)
        assert decay.gamma == 1.0

    def test_slow_rate_is_rate_function(self):
        decay = log_asym_P(EXP25, 0.2, 1.0)
        assert decay.rate == pytest.approx(2.5 - 1.0 - math.log(2.5), rel=1e-12)
        assert decay.gamma == 0.2

    def test_balanced_rate_is_compound(self):
        decay = log_asym_P(EXP25, 1.0, 1.0)
        # exponential closed form: e^t = a(lam + 1)/(a + 1), rate = t a - CGF(e^t - 1)
        u = 1.0 * 3.5 / 2.0
        assert decay.rate == pytest.approx(math.log(u) + math.log1p(-(u - 1.0) / 2.5), rel=1e-13)
        # independent check: golden-section maximization of t*a - CGF(e^t - 1)
        objective = lambda t: t * 1.0 - EXP25.cgf(math.expm1(t))[0]
        lo, hi = 0.0, math.log1p(2.5 * (1.0 - 1e-9))
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = hi - phi * (hi - lo), lo + phi * (hi - lo)
        for _ in range(200):
            if objective(c) < objective(d):
                lo = c
            else:
                hi = d
            c, d = hi - phi * (hi - lo), lo + phi * (hi - lo)
        assert decay.rate == pytest.approx(objective(0.5 * (lo + hi)), abs=1e-9)

    def test_materialize(self):
        decay = log_asym_P(EXP25, 0.2, 1.0)
        value = decay.at(160.0)
        assert value.log_value == pytest.approx(-(160.0**0.2) * decay.rate, rel=1e-14)
        assert value.regime == "LogOnly"

    def test_bounded_support_redirects(self):
        with pytest.raises(InfeasibleTargetError):
            log_asym_P(TwoPoint(0.75, 1.0, 5.0), 0.3, 6.0)

    def test_rarity(self):
        with pytest.raises(InfeasibleTargetError):
            log_asym_P(EXP25, 2.0, 0.3)


class TestApproxFast:
    def test_formula(self):
        # independent transcription, exponential rates with mean 0.4
        tail, point = approx_fast(EXP25, 5.0, 1.0, 40.0)
        nu = 0.4
        rate = 1.0 * math.log(1.0 / nu) - 1.0 + nu
        assert rate == pytest.approx(math.log(2.5) - 0.6, rel=1e-12)
        constant = (1.0 / (1.0 - nu / 1.0)) / math.sqrt(2.0 * math.pi * 1.0)
        expected_tail = -40.0 * rate + math.log(constant) - 0.5 * math.log(40.0)
        assert tail.log_value == pytest.approx(expected_tail, abs=1e-12)
        expected_point = expected_tail + math.log(1.0 - nu / 1.0)
        assert point.log_value == pytest.approx(expected_point, abs=1e-12)

    def test_validity_tags(self):
        tail, _ = approx_fast(EXP25, 5.0, 1.0, 40.0)
        assert (tail.regime, tail.validity) == ("FastExact", "Valid")
        tail, _ = approx_fast(EXP25, 2.5, 1.0, 40.0)
        assert (tail.regime, tail.validity) == ("FastLowerBound", "LowerBoundOnly")

    def test_preconditions(self):
        with pytest.raises(RegimeError):
            approx_fast(EXP25, 2.0, 1.0, 40.0)
        with pytest.raises(InfeasibleTargetError):
            approx_fast(EXP25, 5.0, 0.4, 40.0)

    def test_tilt_where_e_2theta_overflows(self):
        # theta = log(1e300) > 354.9: the point mass has no curvature term
        # to multiply by e^(2 theta) = inf
        a = 1e300
        tail, _ = approx_fast(DeterministicRate(1.0), 5.0, a, 1.0)
        expected = -(a * math.log(a) - a + 1.0) - 0.5 * math.log(2.0 * math.pi * a)
        assert tail.log_value == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("a", [1.0, 0.5, 0.0])
    def test_upper_tail_only(self, a):
        # the Poisson factor has no sharp form at or below its mean
        with pytest.raises(InfeasibleTargetError):
            approx_fast(DeterministicRate(1.0), 5.0, a, 40.0)


def fast_constant(N):
    """The constant the fast form implies for Pois(N) at level 2:
    exp(log P + N I + log(N) / 2), with I the Poisson rate function."""
    tail = approx_fast(DeterministicRate(1.0), 5.0, 2.0, N)[0]
    rate = rate_function(PoissonRate(1.0), 2.0).value
    return math.exp(tail.log_value + N * rate + 0.5 * math.log(N))


class TestExactTails:
    @pytest.mark.parametrize("mean,k,tail", [
        # mpmath gammainc(k, 0, mean, regularized=True) at 40 digits
        (10.0, 20, 0.003454341975856807682166258),
        (1000.0, 2000, 3.058192080168756795018762e-170),
    ])
    def test_oracle_pins(self, mean, k, tail):
        assert poisson_tail(mean, k) == pytest.approx(tail, rel=1e-12)

    def test_sharp_constant_is_the_tail_limit(self):
        # the tail scaled by e^{N I} sqrt(N) must settle on the constant of
        # the fast form (positive form), not on its sign-flipped variant
        rate = rate_function(PoissonRate(1.0), 2.0).value
        ratios = []
        for N in (125, 250, 500, 1000):
            scaled = poisson_tail(N, 2 * N) * math.exp(N * rate) * math.sqrt(N)
            ratios.append(scaled / fast_constant(N))
        assert fast_constant(1.0) == pytest.approx(1.0 / (0.5 * math.sqrt(4.0 * math.pi)),
                                                   rel=1e-12)
        assert 0.95 < ratios[-2] < 1.05
        assert abs(ratios[-1] - 1.0) < abs(ratios[-2] - 1.0)
        flipped = -1.0 / math.expm1(math.log(2.0)) / math.sqrt(4.0 * math.pi)
        assert abs(poisson_tail(500, 1000) * math.exp(500 * rate) * math.sqrt(500) / flipped - 1.0) > 0.4

    def test_point_to_tail_ratio_limit(self):
        # pmf/tail approaches the fast form's point/tail ratio 1 - e^{-theta*}
        tail, point = approx_fast(DeterministicRate(1.0), 5.0, 2.0, 1.0)
        limit = math.exp(point.log_value - tail.log_value)
        devs = [abs(math.exp(poisson_log_pmf(N, 2 * N)) / poisson_tail(N, 2 * N) - limit)
                for N in (50, 200, 800)]
        assert devs[-1] < devs[0]
        assert devs[-1] < 1e-3  # drift is O(1/N)


class TestApproxSlowCase1:
    def test_formula(self):
        tail, point = approx_slow_case1(EXP25, 0.2, 1.0, 160.0)
        rate = 2.5 - 1.0 - math.log(2.5)
        constant = bahadur_rao_constant(EXP25, 1.0)
        n_a = 160.0**0.2
        assert tail.log_value == pytest.approx(
            -n_a * rate + math.log(constant) - 0.1 * math.log(160.0), abs=1e-12
        )
        # point/tail ratio is I'(a) N^(alpha-1)
        assert point.log_value - tail.log_value == pytest.approx(
            math.log(1.5 * 160.0 ** (-0.8)), abs=1e-12
        )

    def test_validity_tags(self):
        tail, _ = approx_slow_case1(EXP25, 0.2, 1.0, 160.0)
        assert (tail.regime, tail.validity) == ("SlowIExact", "Valid")
        tail, _ = approx_slow_case1(EXP25, 0.4, 1.0, 160.0)
        assert (tail.regime, tail.validity) == ("SlowILowerBound", "LowerBoundOnly")

    def test_preconditions(self):
        with pytest.raises(RegimeError):
            approx_slow_case1(EXP25, 0.6, 1.0, 160.0)
        with pytest.raises(LatticeError):
            approx_slow_case1(TwoPoint(0.75, 1.0, 5.0), 0.2, 3.0, 160.0)
        with pytest.raises(InfeasibleTargetError):
            approx_slow_case1(TwoPoint(0.75, 1.0, 5.0), 0.2, 6.0, 160.0)


class TestApproxSlowCase2:
    B_PLUS, I_B, IP_B, C_B = 1.0, 0.3, 2.0, 0.4

    def args(self):
        return (self.B_PLUS, self.I_B, self.IP_B, self.C_B)

    def test_synthetic_formula(self):
        # independent re-implementation of the displayed value
        alpha, a, N = 0.5, 2.0, 100.0
        tail, point = approx_slow_case2(*self.args(), alpha, a, N)
        i_ab = a * math.log(a / self.B_PLUS) - a + self.B_PLUS
        c_ab = 1.0 / (1.0 - self.B_PLUS / a) / math.sqrt(2.0 * math.pi * a)
        gamma_const = c_ab * self.C_B * self.IP_B
        expected = (
            -N * i_ab
            - math.sqrt(N) * self.I_B
            - 0.75 * math.log(N)
            + math.log(gamma_const * self.B_PLUS / (a - self.B_PLUS))
        )
        assert tail.log_value == pytest.approx(expected, abs=1e-12)
        assert point.log_value == pytest.approx(expected + math.log(1.0 - 0.5), abs=1e-12)
        assert tail.regime == "SlowIIExact"

    def test_scaling_decomposition(self):
        alpha, a = 0.5, 2.0
        i_ab = rate_function(PoissonRate(self.B_PLUS), a).value
        t1 = approx_slow_case2(*self.args(), alpha, a, 100.0)[0].log_value
        t2 = approx_slow_case2(*self.args(), alpha, a, 200.0)[0].log_value
        expected_delta = (
            -i_ab * 100.0
            - self.I_B * (200.0**alpha - 100.0**alpha)
            - 0.5 * (alpha + 1.0) * math.log(2.0)
        )
        assert t2 - t1 == pytest.approx(expected_delta, abs=1e-10)

    def test_log_rate_dominates(self):
        i_ab = rate_function(PoissonRate(self.B_PLUS), 2.0).value
        for N in (1e4, 1e6):
            log_p = approx_slow_case2(*self.args(), 0.5, 2.0, N)[0].log_value
            assert -log_p / N == pytest.approx(i_ab, rel=2e-2 if N == 1e4 else 2e-3)

    def test_assumption_errors(self):
        with pytest.raises(DomainError):
            approx_slow_case2(1.0, math.inf, 2.0, 0.4, 0.5, 2.0, 100.0)
        with pytest.raises(DomainError):
            approx_slow_case2(1.0, 0.3, -1.0, 0.4, 0.5, 2.0, 100.0)
        with pytest.raises(DomainError):
            approx_slow_case2(3.0, 0.3, 2.0, 0.4, 0.5, 2.0, 100.0)  # b_plus >= a
        with pytest.raises(RegimeError):
            approx_slow_case2(1.0, 0.3, 2.0, 0.4, 1.2, 2.0, 100.0)


class TestApproxIntermediate:
    def test_tail_point_ratio(self):
        tail, point = approx_intermediate(EXP25, 1.0, 50.0)
        theta = math.log(1.0 * 3.5 / 2.0)  # the exponential closed form
        assert tail.log_value - point.log_value == pytest.approx(
            -math.log(-math.expm1(-theta)), abs=1e-12
        )

    def test_deterministic_reduces_to_fast_form(self):
        # without mixing the balanced formula collapses to the plain sharp one
        lam, a, N = 1.0, 2.0, 30.0
        tail, point = approx_intermediate(DeterministicRate(lam), a, N)
        rate = a * math.log(a / lam) - a + lam
        expected_tail = (-N * rate - math.log(1.0 - lam / a)
                         - 0.5 * math.log(2.0 * math.pi * a) - 0.5 * math.log(N))
        assert tail.log_value == pytest.approx(expected_tail, abs=1e-10)
        assert point.log_value == pytest.approx(expected_tail + math.log(1.0 - lam / a), abs=1e-10)


class TestApproxAuto:
    def test_dispatch_tags(self):
        assert approx_auto(EXP25, 5.0, 1.0, 40.0)[0].regime == "FastExact"
        assert approx_auto(EXP25, 2.5, 1.0, 40.0)[0].validity == "LowerBoundOnly"
        assert approx_auto(EXP25, 0.4, 1.0, 40.0)[0].regime == "SlowILowerBound"
        assert approx_auto(EXP25, 0.2, 1.0, 40.0)[0].regime == "SlowIExact"
        assert approx_auto(EXP25, 1.0, 1.0, 40.0)[0].regime == "Intermediate"
        log_only = approx_auto(EXP25, 1.5, 1.0, 40.0)[0]
        assert (log_only.regime, log_only.validity) == ("LogOnly", "OutsideProvenRange")
        assert approx_auto(EXP25, 2.0, 1.0, 40.0)[0].regime == "LogOnly"

    @pytest.mark.parametrize("alpha,N", [(0.7, -4.0), (5.0, 0.0), (1.5, 0.0)])
    def test_rejects_nonpositive_N(self, alpha, N):
        with pytest.raises(DomainError, match="N must be positive"):
            approx_auto(EXP25, alpha, 1.0, N)

    def test_bounded_support_needs_explicit_constants(self):
        with pytest.raises(InfeasibleTargetError, match="approx_slow_case2"):
            approx_auto(TwoPoint(0.75, 1.0, 5.0), 0.3, 6.0, 40.0)

    @pytest.mark.parametrize("alpha", [0.2, 0.4, 1.0, 1.5, 2.5, 5.0])
    def test_monotone_in_level(self, alpha):
        grid = [0.8, 1.0, 1.3, 1.7, 2.2]
        values = [approx_auto(EXP25, alpha, a, 60.0)[0].log_value for a in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_value_materialization(self):
        tail, _ = approx_auto(EXP25, 5.0, 1.0, 40.0)
        assert tail.value == pytest.approx(math.exp(tail.log_value))
        deep = AsymptoticValue(-800.0, "LogOnly", "Valid", 1.0)
        assert deep.value == 0.0  # underflow materializes as zero
        assert AsymptoticValue(-math.inf, "LogOnly", "Valid", 1.0).value == 0.0

    @pytest.mark.parametrize("log_value", [math.nan, math.inf])
    def test_nan_or_infinite_value_is_a_numerical_failure(self, log_value):
        with pytest.raises(ConvergenceError):
            AsymptoticValue(log_value, "LogOnly", "Valid", 1.0)


PER_REGIME_FORMS = {
    "approx_fast": lambda N: approx_fast(EXP25, 5.0, 1.0, N),
    "approx_slow_case1": lambda N: approx_slow_case1(EXP25, 0.2, 1.0, N),
    "approx_slow_case2": lambda N: approx_slow_case2(1.0, 0.3, 2.0, 0.4, 0.5, 2.0, N),
    "approx_intermediate": lambda N: approx_intermediate(EXP25, 1.0, N),
    "DecayRate.at": lambda N: log_asym_P(EXP25, 0.75, 1.0).at(N),
}


@pytest.mark.parametrize("N", [-1.0, 0.0, math.nan])
@pytest.mark.parametrize("form", PER_REGIME_FORMS)
def test_per_regime_forms_reject_N(form, N):
    # these raised a bare math domain error (a TypeError on a complex log
    # value for DecayRate.at), or at NaN a ConvergenceError (or a NaN value),
    # or accepted N = 0, instead of naming the argument
    with pytest.raises(DomainError, match="N must be positive"):
        PER_REGIME_FORMS[form](N)


@pytest.mark.parametrize("mean,a", [(1.0, 2.0), (2.5, 3.0), (0.4, 1e5), (1.0, 1.0000001), (3.0, 1e300)])
def test_point_mass_count_is_the_unit_rule(mean, a):
    # the closed-form integrals are bit-identical to the one-node rule's
    # evaluation at the point-mass rate law, over tilts from 1e-7 to 690
    theta, integrals = _point_mass_count(mean, a)
    assert theta == math.log(a / mean)
    rule = queue._UNIT_RULE.integrals(DeterministicRate(mean), math.expm1(theta))
    assert integrals == tuple(float(x) for x in rule)


class TestCompoundCount:
    """The compound count Pois(X) of the balanced regime, solved as the
    occupancy of one node at full retention."""

    def test_exponential_closed_form(self):
        theta, sigma2 = compound_count(Exponential(2.5), 1.0)
        assert math.exp(theta) == pytest.approx(1.0 * 3.5 / 2.0, rel=1e-11)
        assert sigma2 == pytest.approx(1.0 * (1.0 + 1.0), rel=1e-11)

    @pytest.mark.parametrize("lam,a", [(2.5, 1.0), (1.0, 2.0), (0.7, 4.0)])
    def test_exponential_tilt_identity(self, lam, a):
        theta, sigma2 = compound_count(Exponential(lam), a)
        assert math.exp(theta) == pytest.approx(a * (1.0 + lam) / (1.0 + a), rel=1e-11)
        assert sigma2 == pytest.approx(a * (1.0 + a), rel=1e-10)

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
        assert log_asym_P(dist, 1.0, a).rate == pytest.approx(rate, rel=1e-9, abs=0.0)

    def test_deterministic_reduces_to_poisson(self):
        theta, sigma2 = compound_count(DeterministicRate(1.0), 2.0)
        p = rate_function(PoissonRate(1.0), 2.0)
        assert log_asym_P(DeterministicRate(1.0), 1.0, 2.0).rate == pytest.approx(p.value,
                                                                                 abs=1e-12)
        assert theta == pytest.approx(p.theta_star, abs=1e-12)
        assert sigma2 == pytest.approx(2.0, abs=1e-11)

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
        theta, sigma2 = compound_count(dist, a)
        rate = log_asym_P(dist, 1.0, a).rate
        assert theta * a - dist.cgf(math.expm1(theta))[0] - rate == pytest.approx(0.0, abs=1e-10)
        assert sigma2 > 0.0

    def test_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            log_asym_P(Exponential(2.5), 1.0, 0.3)
        with pytest.raises(InfeasibleTargetError):
            approx_intermediate(Exponential(2.5), 0.3, 50.0)
