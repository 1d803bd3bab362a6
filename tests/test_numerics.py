import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpois.errors import ConvergenceError, DomainError
from mixpois.numerics import (
    Interval,
    QuadratureSpec,
    find_root_increasing,
    gauss_legendre,
    integrate,
    log_gamma,
    regularized_lower_gamma,
)

UNIT = Interval(0.0, 1.0)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_factorial_oracle(self):
        # ln(100!) accumulated term by term
        expected = sum(math.log(k) for k in range(1, 101))
        assert log_gamma(101.0) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 1.46, 2.0, 3.5, 12.0, 171.6, 1e4, 1e8])
    def test_against_stdlib(self, x):
        # independent oracle: C library implementation
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestRegularizedLowerGamma:
    def test_zero_mass(self):
        assert regularized_lower_gamma(1.0, 0.0) == 0.0

    def test_exponential_cdf(self):
        assert regularized_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-13)

    def test_poisson_sum_identity(self):
        # P(3, 2) = 1 - e^{-2}(1 + 2 + 2)
        assert regularized_lower_gamma(3.0, 2.0) == pytest.approx(1.0 - 5.0 * math.exp(-2.0), abs=1e-13)

    def test_erlang_oracle(self):
        # P(s, x) for integer s equals 1 - e^{-x} sum_{j<s} x^j/j!
        for s in (2, 5, 17, 40):
            for x in (0.3, 4.0, 17.0, 60.0):
                expected = 1.0 - math.exp(-x) * sum(x**j / math.factorial(j) for j in range(s))
                assert regularized_lower_gamma(float(s), x) == pytest.approx(expected, abs=1e-13)

    @given(s=st.floats(min_value=0.01, max_value=500.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_with_unit_limits(self, s):
        xs = [0.0, 0.5 * s, s, 2.0 * s + 1.0, 4.0 * s + 50.0, 8.0 * s + 200.0]
        values = [regularized_lower_gamma(s, x) for x in xs]
        assert values[0] == 0.0
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values[-1] > 0.999

    def test_domain(self):
        with pytest.raises(DomainError):
            regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            regularized_lower_gamma(1.0, -1.0)


class TestGaussLegendre:
    @pytest.mark.parametrize("order", [1, 2, 5, 10, 20, 40])
    def test_reference_rule_matches_numpy(self, order):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = gauss_legendre([-1.0, 1.0], order)
        ref_nodes, ref_weights = leggauss(order)
        assert np.max(np.abs(nodes - ref_nodes)) < 1e-15
        assert np.max(np.abs(weights - ref_weights)) < 1e-14

    @pytest.mark.parametrize("order", [3, 10, 20])
    def test_composite_rule_is_exact_for_its_degree(self, order):
        edges = [0.0, 1e-6, 0.3, 0.5, 1.0]
        nodes, weights = gauss_legendre(edges, order)
        assert nodes.size == weights.size == 4 * order
        assert np.all((nodes > 0.0) & (nodes < 1.0))
        degree = 2 * order - 1
        assert np.sum(weights * nodes**degree) == pytest.approx(1.0 / (degree + 1), rel=1e-13)

    def test_jump_at_an_edge_is_exact(self):
        nodes, weights = gauss_legendre([0.0, 0.5, 1.0], 4)
        assert np.sum(weights * np.where(nodes < 0.5, 1.0, 0.0)) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("edges,order", [
        ([0.0, 1.0], 0),
        ([0.0, 1.0], 2.0),
        ([0.0], 4),
        ([0.0, 0.5, 0.5, 1.0], 4),
        ([1.0, 0.0], 4),
        ([0.0, math.inf], 4),
    ])
    def test_validation(self, edges, order):
        with pytest.raises(DomainError):
            gauss_legendre(edges, order)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, UNIT) == pytest.approx(1.0, abs=1e-14)

    def test_exponential(self):
        expected = (1.0 - math.exp(-2.0)) / 2.0
        assert integrate(lambda x: math.exp(-2.0 * x), UNIT) == pytest.approx(expected, abs=1e-13)

    def test_indicator_with_breakpoint_exact(self):
        spec = QuadratureSpec(breakpoints=(0.5,))
        assert integrate(lambda x: 1.0 if x < 0.5 else 0.0, UNIT, spec) == 0.5

    def test_additive_over_breakpoints(self):
        f = lambda x: math.sin(3.0 * x) * math.exp(x)
        spec = QuadratureSpec(breakpoints=(0.3,))
        whole = integrate(f, UNIT, spec)
        split = integrate(f, Interval(0.0, 0.3)) + integrate(f, Interval(0.3, 1.0))
        assert abs(whole - split) <= 2.0 * spec.abs_tol + 1e-13 * abs(whole)

    def test_empty_interval(self):
        assert integrate(lambda x: 5.0, Interval(2.0, 2.0)) == 0.0

    def test_breakpoint_outside_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: 1.0, UNIT, QuadratureSpec(breakpoints=(1.5,)))

    def test_nonconvergence_reported(self):
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_depth=3)
        with pytest.raises(ConvergenceError):
            integrate(lambda x: math.exp(10.0 * x) * math.sin(40.0 * x), Interval(0.0, 3.0), spec)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_depth=0)
        with pytest.raises(DomainError):
            Interval(1.0, 0.0)
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)


class TestFindRootIncreasing:
    def test_linear(self):
        assert find_root_increasing(lambda x: x - 1.0, Interval(0.0, 2.0)) == pytest.approx(1.0, abs=1e-11)

    def test_exponential(self):
        root = find_root_increasing(lambda x: math.exp(x) - 3.0, Interval(0.0, 1.0))
        assert root == pytest.approx(math.log(3.0), abs=1e-11)

    def test_expansion_required(self):
        root = find_root_increasing(lambda x: x**3 - 2.0, Interval(0.0, 1.0))
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-11)

    def test_downward_expansion(self):
        root = find_root_increasing(lambda x: x + 10.0, Interval(0.0, 1.0))
        assert root == pytest.approx(-10.0, abs=1e-9)

    @pytest.mark.parametrize(
        "g,analytic",
        [
            (lambda x: x - 1.0, 1.0),
            (lambda x: math.exp(x) - 3.0, math.log(3.0)),
            (lambda x: x**3 - 2.0, 2.0 ** (1.0 / 3.0)),
            (lambda x: math.atan(x) - 1.0, math.tan(1.0)),
        ],
    )
    def test_final_bracket_property(self, g, analytic):
        tol = 1e-12
        root = find_root_increasing(g, Interval(0.0, 1.0), tol=tol)
        w = 4.0 * max(tol, abs(root) * 1e-12)
        assert g(root - w) <= tol
        assert g(root + w) >= -tol
        assert root == pytest.approx(analytic, abs=1e-9)

    def test_domain_boundary_error(self):
        with pytest.raises(DomainError):
            find_root_increasing(lambda x: x - 10.0, Interval(0.0, 1.0), hi_limit=5.0)
        with pytest.raises(DomainError):
            find_root_increasing(lambda x: x + 10.0, Interval(0.0, 1.0), lo_limit=-5.0)
