import math

import pytest

from mixpois.errors import (
    ConvergenceError,
    DomainError,
    InfeasibleTargetError,
    LatticeError,
    RegimeError,
)
from mixpois.poisson_ldp import compound_z, poisson_rate
from mixpois.rates import (
    DeterministicRate,
    Exponential,
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
)

EXP25 = Exponential(2.5)


class TestLogAsym:
    def test_fast_rate_is_poisson_layer(self):
        decay = log_asym_P(PoissonRate(2.0), 2.0, 3.0)
        assert decay.rate == pytest.approx(poisson_rate(3.0, 2.0).rate, rel=1e-14)
        assert decay.gamma == 1.0

    def test_slow_rate_is_rate_function(self):
        decay = log_asym_P(EXP25, 0.2, 1.0)
        assert decay.rate == pytest.approx(2.5 - 1.0 - math.log(2.5), rel=1e-12)
        assert decay.gamma == 0.2

    def test_balanced_rate_is_compound(self):
        decay = log_asym_P(EXP25, 1.0, 1.0)
        z = compound_z(EXP25, 1.0)
        assert decay.rate == pytest.approx(z.rate, rel=1e-13)
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
        i_ab = poisson_rate(a, self.B_PLUS).rate
        t1 = approx_slow_case2(*self.args(), alpha, a, 100.0)[0].log_value
        t2 = approx_slow_case2(*self.args(), alpha, a, 200.0)[0].log_value
        expected_delta = (
            -i_ab * 100.0
            - self.I_B * (200.0**alpha - 100.0**alpha)
            - 0.5 * (alpha + 1.0) * math.log(2.0)
        )
        assert t2 - t1 == pytest.approx(expected_delta, abs=1e-10)

    def test_log_rate_dominates(self):
        i_ab = poisson_rate(2.0, self.B_PLUS).rate
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
        z = compound_z(EXP25, 1.0)
        assert tail.log_value - point.log_value == pytest.approx(
            -math.log(-math.expm1(-z.theta_star)), abs=1e-12
        )

    def test_deterministic_reduces_to_fast_form(self):
        # without mixing the balanced formula collapses to the plain sharp one
        lam, a, N = 1.0, 2.0, 30.0
        tail, point = approx_intermediate(DeterministicRate(lam), a, N)
        ldp = poisson_rate(a, lam)
        expected_tail = -N * ldp.rate + math.log(ldp.prefactor) - 0.5 * math.log(N)
        assert tail.log_value == pytest.approx(expected_tail, abs=1e-10)
        assert point.log_value == pytest.approx(
            expected_tail + math.log(-math.expm1(-ldp.theta_star)), abs=1e-10
        )


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
