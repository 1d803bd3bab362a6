import math

import numpy as np
import pytest

from mixpois.errors import ConvergenceError, DomainError
from mixpois.numerics import (
    Interval,
    QuadratureSpec,
    ceil_count,
    exact_count,
    find_root_increasing,
    gauss_legendre,
    integrate,
    log_gamma,
)

UNIT = Interval(0.0, 1.0)


class TestCountConventions:
    def test_ceil(self):
        assert ceil_count(0.0) == 0
        assert ceil_count(3.0) == 3
        assert ceil_count(3.2) == 4
        assert ceil_count(3.0000000001) == 3  # snaps within 1e-9
        assert ceil_count(2.9999999999) == 3

    # a positive threshold within the snap of 0 would count every run a hit
    @pytest.mark.parametrize("n_times_a", [5e-324, 3e-300, 1e-9])
    def test_ceil_refuses_a_positive_threshold_snapping_to_zero(self, n_times_a):
        with pytest.raises(DomainError, match="positive but within 1e-09 of 0"):
            ceil_count(n_times_a)
        assert ceil_count(2e-9) == 1

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

    @pytest.mark.parametrize("x", [5e-309, 1e-310, 5e-324])
    def test_subnormal_argument(self, x):
        # pi / sin(pi x) overflows below about 5.6e-309; log Gamma(x) = -log x there
        assert log_gamma(x) == math.lgamma(x)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


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
        with pytest.raises(DomainError, match="noise_floor_rel"):
            QuadratureSpec(noise_floor_rel=0.5)
        with pytest.raises(DomainError):
            Interval(1.0, 0.0)
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)


def _with_slope(f, df):
    """g(x) = (f(x), f'(x)), the form find_root_increasing evaluates."""
    return lambda x: (f(x), df(x))


LINEAR = _with_slope(lambda x: x - 1.0, lambda x: 1.0)
EXPONENTIAL = _with_slope(lambda x: math.exp(x) - 3.0, math.exp)
CUBIC = _with_slope(lambda x: x**3 - 2.0, lambda x: 3.0 * x * x)
ARCTAN = _with_slope(lambda x: math.atan(x) - 1.0, lambda x: 1.0 / (1.0 + x * x))
# a pole 1e-6 past the bracket [0, 1], as the occupancy level has at the MGF
# wall: the slope at the root is 4e10, so g moves by 4.4e-6 per float of x
# there and never reaches |g| <= 1e-12
POLE = _with_slope(lambda x: 1.0 / (1.0 + 1e-6 - x) - 2e5, lambda x: (1.0 + 1e-6 - x) ** -2)


def _counted(g):
    """g with a list of the points it was evaluated at."""
    points = []

    def counted(x):
        points.append(x)
        return g(x)

    return counted, points


# finite search limits that the tests' roots and bracket expansions stay well inside
LIMITS = (-1e3, 1e3)
TOL = 1e-12  # the stop |g| <= TOL, in the units of each test's g


class TestFindRootIncreasing:
    def test_linear(self):
        root = find_root_increasing(LINEAR, Interval(0.0, 2.0), *LIMITS, tol=TOL)
        assert root == pytest.approx(1.0, abs=1e-11)

    def test_exponential(self):
        root = find_root_increasing(EXPONENTIAL, Interval(0.0, 1.0), *LIMITS, tol=TOL)
        assert root == pytest.approx(math.log(3.0), abs=1e-11)

    def test_expansion_required(self):
        root = find_root_increasing(CUBIC, Interval(0.0, 1.0), *LIMITS, tol=TOL)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-11)

    def test_downward_expansion(self):
        g, points = _counted(_with_slope(lambda x: x + 10.0, lambda x: 1.0))
        root = find_root_increasing(g, Interval(0.0, 1.0), *LIMITS, tol=TOL)
        assert root == pytest.approx(-10.0, abs=1e-9)
        assert min(points) < -10.0

    def test_upward_expansion(self):
        g, points = _counted(_with_slope(lambda x: x - 10.0, lambda x: 1.0))
        root = find_root_increasing(g, Interval(0.0, 1.0), *LIMITS, tol=TOL)
        assert root == pytest.approx(10.0, abs=1e-9)
        assert max(points) > 10.0

    @pytest.mark.parametrize(
        "g,analytic",
        [
            (LINEAR, 1.0),
            (EXPONENTIAL, math.log(3.0)),
            (CUBIC, 2.0 ** (1.0 / 3.0)),
            (ARCTAN, math.tan(1.0)),
            (POLE, 1.0 + 1e-6 - 1.0 / 2e5),
        ],
    )
    def test_final_bracket_property(self, g, analytic):
        root = find_root_increasing(g, Interval(0.0, 1.0), *LIMITS, tol=TOL)
        w = 4.0 * max(TOL, abs(root) * 1e-12)
        assert g(root - w)[0] <= TOL
        assert g(root + w)[0] >= -TOL
        assert root == pytest.approx(analytic, abs=1e-9)
        # the root meets the tolerance, or no float next to it has a smaller
        # |g|: a stop on the bracket width left |g| = 1.2e-4 at the pole
        neighbours = (math.nextafter(root, -math.inf), math.nextafter(root, math.inf))
        assert abs(g(root)[0]) <= max(TOL, min(abs(g(x)[0]) for x in neighbours))
        # the stop is in g's units: g and TOL scaled alike by a power of 2
        # take the same steps to the same root, bit for bit
        for k in (-40, 40):
            def scaled(x, k=k):
                return tuple(math.ldexp(v, k) for v in g(x))

            assert find_root_increasing(scaled, Interval(0.0, 1.0), *LIMITS,
                                        tol=math.ldexp(TOL, k)) == root

    def test_quadratic_convergence(self):
        # two bracket ends, then Newton steps whose residuals square
        g, points = _counted(EXPONENTIAL)
        root = find_root_increasing(g, Interval(0.0, 2.0), *LIMITS, tol=TOL)
        assert abs(root - math.log(3.0)) <= 1e-12
        assert len(points) <= 8
        residuals = [abs(g(x)[0]) for x in points[2:]]
        for before, after in zip(residuals, residuals[1:]):
            if after > 1e-12:
                assert after <= 2.0 * before**2

    @pytest.mark.parametrize("bad_slope", [0.0, math.inf, math.nan, -1.0])
    def test_unusable_slope_bisects(self, bad_slope):
        g, points = _counted(_with_slope(lambda x: x - 0.3, lambda x: bad_slope))
        root = find_root_increasing(g, Interval(0.0, 1.0), *LIMITS, tol=TOL)
        assert root == pytest.approx(0.3, abs=1e-12)
        # every step halves the bracket: 0.5, 0.25, 0.375, ...
        assert points[2:5] == [0.5, 0.25, 0.375]

    def test_newton_step_outside_bracket_bisects(self):
        # a slope ten times too small sends every Newton step out of [lo, hi]
        g, points = _counted(_with_slope(lambda x: x - 0.3, lambda x: 0.1))
        root = find_root_increasing(g, Interval(0.0, 1.0), *LIMITS, tol=TOL)
        assert root == pytest.approx(0.3, abs=1e-12)
        assert points[2] == 0.5

    def test_domain_boundary_error(self):
        with pytest.raises(DomainError, match="no sign change"):
            find_root_increasing(_with_slope(lambda x: x - 10.0, lambda x: 1.0),
                                 Interval(0.0, 1.0), -1e3, 5.0, TOL)
        with pytest.raises(DomainError, match="no sign change"):
            find_root_increasing(_with_slope(lambda x: x + 10.0, lambda x: 1.0),
                                 Interval(0.0, 1.0), -5.0, 1e3, TOL)

    @pytest.mark.parametrize("limits", [(-math.inf, 1e3), (-1e3, math.inf), (math.nan, 1e3)])
    def test_nonfinite_limit_rejected(self, limits):
        g, points = _counted(LINEAR)
        with pytest.raises(DomainError, match="limits must be finite"):
            find_root_increasing(g, Interval(0.0, 2.0), *limits, tol=TOL)
        assert points == []

    def test_stall_raises(self):
        # Newton steps that move x down by one ulp each keep |g| near 1/2 and
        # the bracket near [0, 1], so neither stop (|g| <= 1e-12, or adjacent
        # floats as the bracket ends) is reached in 800 steps
        g, points = _counted(_with_slope(lambda x: x - 0.5,
                                         lambda x: abs(x - 0.5) / math.ulp(x)))
        with pytest.raises(ConvergenceError, match="stalled"):
            find_root_increasing(g, Interval(0.0, 1.0), *LIMITS, tol=TOL)
        assert len(points) == 2 + 800
        # from the hint's top end 1.0 on, each iterate is one ulp below the last
        assert all(x == prev - math.ulp(prev) for prev, x in zip(points[1:], points[2:]))
