import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpois.errors import DomainError, InfeasibleTargetError, LatticeError, ParseError
from mixpois.rates import (
    DeterministicRate,
    Exponential,
    GammaRate,
    PoissonRate,
    TwoPoint,
    bahadur_rao_constant,
    parse_rate,
    rate_function,
    spec_label,
)
from mixpois.queue import DetService, ExpService, Pareto2Service, parse_service
from mixpois.sampling import _slot_rates, _slot_sampler, stream
from reference import numeric_rate_function

# positive numbers of at most 6 significant digits, the precision of spec_label
SIX_DIGITS = st.builds(lambda m, e: float(f"{m}e{e}"),
                       st.integers(1, 999_999), st.integers(-40, 40))

ALL_KINDS = [
    Exponential(2.5),
    GammaRate(2.0, 2.0),
    PoissonRate(2.0),
    TwoPoint(0.75, 1.0, 5.0),
    DeterministicRate(2.0),
]


def rng(seed=0):
    return stream(seed)


class TestConstruction:
    def test_means(self):
        assert Exponential(2.5).mean == pytest.approx(0.4)
        assert GammaRate(2.0, 4.0).mean == pytest.approx(0.5)
        assert PoissonRate(3.0).mean == 3.0
        assert TwoPoint(0.75, 1.0, 5.0).mean == pytest.approx(2.0)
        assert DeterministicRate(1.5).mean == 1.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_squares_leave_the_float_range_without_raising(self):
        assert GammaRate(1.0, 1e200).variance == 0.0
        assert TwoPoint(0.5, 1.0, 1e200).variance == math.inf
        assert math.isinf(float(TwoPoint(0.5, 1.0, 1e200).cgf(1e-200)[2]))
        # CGF'' = beta / gap^2 with gap = 2.5e-275, whose square underflows
        assert math.isinf(float(GammaRate(5e-275, 5e-275).cgf(2.5e-275)[2]))

    def test_mgf_domain(self):
        assert Exponential(2.5).mgf_domain_sup == 2.5
        assert GammaRate(1.0, 3.0).mgf_domain_sup == 3.0
        assert math.isinf(PoissonRate(1.0).mgf_domain_sup)
        assert math.isinf(TwoPoint(0.5, 1.0, 2.0).mgf_domain_sup)

    def test_support_sup(self):
        assert math.isinf(Exponential(1.0).support_sup)
        assert TwoPoint(0.5, 1.0, 2.0).support_sup == 2.0
        assert DeterministicRate(3.0).support_sup == 3.0

    def test_support_inf(self):
        assert Exponential(1.0).support_inf == 0.0
        assert PoissonRate(1.0).support_inf == 0.0
        assert TwoPoint(0.5, 1.0, 2.0).support_inf == 1.0
        assert DeterministicRate(3.0).support_inf == 3.0

    def test_lattice_flags(self):
        assert not Exponential(1.0).lattice
        assert not GammaRate(1.0, 1.0).lattice
        assert PoissonRate(1.0).lattice
        assert TwoPoint(0.5, 1.0, 2.0).lattice
        assert DeterministicRate(1.0).lattice

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: Exponential(0.0),
            lambda: GammaRate(-1.0, 1.0),
            lambda: PoissonRate(-2.0),
            lambda: TwoPoint(1.5, 1.0, 2.0),
            lambda: TwoPoint(0.5, 2.0, 1.0),
            lambda: DeterministicRate(0.0),
        ],
    )
    def test_invalid(self, factory):
        with pytest.raises(DomainError):
            factory()


class TestCgf:
    @pytest.mark.parametrize("dist", ALL_KINDS)
    def test_normalization(self, dist):
        k0, k1, k2 = dist.cgf(0.0)
        assert k0 == pytest.approx(0.0, abs=1e-14)
        assert k1 == pytest.approx(dist.mean, rel=1e-13)
        assert k2 == pytest.approx(dist.variance, rel=1e-12, abs=1e-13)

    def test_exponential_values(self):
        # d/dt of -log(1 - t/lam) is 1/(lam - t)
        k0, k1, k2 = Exponential(2.0).cgf(1.0)
        assert k0 == pytest.approx(math.log(2.0), abs=1e-13)
        assert k1 == pytest.approx(1.0, abs=1e-13)
        assert k2 == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("dist", ALL_KINDS + [GammaRate(1.0, 2.0)])
    def test_default_complement_follows_sf(self, dist):
        # without sf_complement, the damped tilt 1 * 0.5 is the scalar tilt 0.5
        for got, want in zip(dist.cgf(1.0, 0.5), dist.cgf(0.5)):
            assert float(got) == pytest.approx(float(want), rel=1e-14, abs=1e-15)

    def test_two_point_mean(self):
        assert TwoPoint(0.75, 1.0, 5.0).cgf(0.0)[1] == pytest.approx(2.0)

    def test_two_point_overflow_safe(self):
        tp = TwoPoint(0.75, 1.0, 5.0)
        # at a huge tilt the high state dominates; values must stay finite
        k0, k1, _ = tp.cgf(300.0)
        assert k1 == pytest.approx(5.0)
        assert k0 == pytest.approx(300.0 * 5.0 + math.log(0.25), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            Exponential(2.0).cgf(2.0)
        with pytest.raises(DomainError):
            GammaRate(1.0, 2.0).cgf(3.0)

    @pytest.mark.parametrize("dist", ALL_KINDS[:4])
    def test_derivatives_by_finite_differences(self, dist):
        h = 1e-6
        ts = (-0.5, 0.0, 0.7)
        k0 = lambda u: dist.cgf(u)[0]
        for t in ts:
            d1 = (k0(t + h) - k0(t - h)) / (2.0 * h)
            d2 = (k0(t + h) - 2.0 * k0(t) + k0(t - h)) / h**2
            _, k1, k2 = dist.cgf(t)
            assert k1 == pytest.approx(d1, rel=1e-7, abs=1e-7)
            assert k2 == pytest.approx(d2, rel=1e-3, abs=1e-3)
        # one array call at the damped tilts 1 * sf gives the scalar calls' values
        sf = np.array(ts)
        damped = dist.cgf(1.0, sf, 1.0 - sf)
        for i, t in enumerate(ts):
            for got, want in zip(damped, dist.cgf(t)):
                assert got[i] == pytest.approx(float(want), rel=1e-14, abs=1e-15)


class TestRateFunction:
    @pytest.mark.parametrize("dist", ALL_KINDS)
    def test_zero_at_mean(self, dist):
        point = rate_function(dist, dist.mean)
        assert point.value == pytest.approx(0.0, abs=1e-12)
        assert point.theta_star == pytest.approx(0.0, abs=1e-10)

    def test_exponential_closed_form(self):
        point = rate_function(Exponential(2.5), 1.0)
        assert point.value == pytest.approx(2.5 - 1.0 - math.log(2.5), rel=1e-12)
        assert point.theta_star == pytest.approx(1.5, rel=1e-12)

    def test_poisson_closed_form(self):
        point = rate_function(PoissonRate(2.0), 3.0)
        assert point.value == pytest.approx(3.0 * math.log(1.5) - 1.0, rel=1e-12)
        assert point.theta_star == pytest.approx(math.log(1.5), rel=1e-12)
        assert rate_function(PoissonRate(2.0), 2.0).value == 0.0  # no deviation at the mean

    @pytest.mark.parametrize(
        "dist,targets",
        [
            (Exponential(2.5), (0.15, 0.4, 1.0, 3.0)),
            (GammaRate(2.0, 2.0), (0.3, 1.0, 2.0, 7.0)),
            (PoissonRate(2.0), (0.5, 2.0, 3.0, 9.0)),
            (TwoPoint(0.75, 1.0, 5.0), (1.2, 2.0, 3.3, 4.8)),
        ],
    )
    def test_numeric_matches_auto(self, dist, targets):
        for a in targets:
            auto = rate_function(dist, a)
            numeric = numeric_rate_function(dist, a)
            assert numeric.theta_star == pytest.approx(auto.theta_star, abs=1e-10)
            assert numeric.value == pytest.approx(auto.value, abs=1e-10)

    @pytest.mark.parametrize("dist", ALL_KINDS[:4])
    def test_nonneg_convex_and_duality(self, dist):
        lo, hi = dist.support_inf, dist.support_sup
        lo = max(lo, 1e-3)
        hi = min(hi, 5.0 * dist.mean)
        grid = [lo + (hi - lo) * i / 40.0 for i in range(1, 40)]
        values = []
        for a in grid:
            point = rate_function(dist, a)
            values.append(point.value)
            assert point.value >= -1e-12
            if abs(a - dist.mean) > 1e-3:
                assert point.value > 0.0
            # Legendre duality
            assert dist.cgf(point.theta_star)[0] + point.value == pytest.approx(
                point.theta_star * a, abs=1e-10
            )
        second_diffs = [values[i - 1] - 2 * values[i] + values[i + 1] for i in range(1, len(values) - 1)]
        assert min(second_diffs) >= -1e-9

    def test_two_point_boundaries(self):
        tp = TwoPoint(0.75, 1.0, 5.0)
        low = rate_function(tp, 1.0)
        assert low.value == pytest.approx(-math.log(0.75), rel=1e-12)
        assert low.theta_star == -math.inf
        high = rate_function(tp, 5.0)
        assert high.value == pytest.approx(-math.log(0.25), rel=1e-12)
        assert high.theta_star == math.inf

    def test_two_point_interior_is_continuous_into_the_atoms(self):
        tp = TwoPoint(0.75, 1.0, 5.0)
        assert rate_function(tp, 1.0 + 1e-9).value == pytest.approx(-math.log(0.75), abs=1e-7)
        assert rate_function(tp, 5.0 - 1e-9).value == pytest.approx(-math.log1p(-0.75),
                                                                     abs=1e-7)

    def test_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            rate_function(TwoPoint(0.75, 1.0, 5.0), 6.0)
        with pytest.raises(InfeasibleTargetError):
            rate_function(Exponential(1.0), -0.5)
        with pytest.raises(InfeasibleTargetError):
            rate_function(DeterministicRate(2.0), 3.0)
        # the range check runs before the closed forms, which take log(a)
        with pytest.raises(InfeasibleTargetError):
            rate_function(PoissonRate(2.0), 0.0)
        with pytest.raises(InfeasibleTargetError):
            rate_function(GammaRate(2.0, 1.0), 0.0)
        with pytest.raises(InfeasibleTargetError):
            rate_function(TwoPoint(0.75, 1.0, 5.0), 0.5)

    def test_deterministic_at_mean(self):
        point = rate_function(DeterministicRate(2.0), 2.0)
        assert point.value == 0.0
        assert point.theta_star == 0.0


class TestBahadurRaoConstant:
    def test_exponential_examples(self):
        # theta* = lam - 1/a and CGF'' = a^2 at the tilt
        assert bahadur_rao_constant(Exponential(2.5), 1.0) == pytest.approx(
            1.0 / (1.5 * math.sqrt(2.0 * math.pi)), rel=1e-12
        )
        assert bahadur_rao_constant(Exponential(1.0), 2.0) == pytest.approx(
            1.0 / (0.5 * math.sqrt(8.0 * math.pi)), rel=1e-12
        )

    def test_gamma_example(self):
        assert bahadur_rao_constant(GammaRate(2.0, 2.0), 2.0) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi), rel=1e-12
        )

    @pytest.mark.parametrize("dist", [PoissonRate(1.0), TwoPoint(0.5, 1.0, 3.0), DeterministicRate(1.0)])
    def test_lattice_rejected(self, dist):
        with pytest.raises(LatticeError):
            bahadur_rao_constant(dist, 2.0 * dist.mean)

    def test_needs_upper_deviation(self):
        with pytest.raises(DomainError):
            bahadur_rao_constant(Exponential(1.0), 0.5)


def slot_rates(dist, rng, n):
    """n slot rates of ``dist``, as the occupancy simulation draws them past
    the table bound of its law."""
    return _slot_rates(dist)(rng, n)


class TestSampling:
    def test_exponential_mean(self):
        x = slot_rates(Exponential(2.0), rng(1), 10**6)
        assert abs(x.mean() - 0.5) < 5e-3

    def test_gamma_non_integer_shape(self):
        g = GammaRate(0.5, 1.0)
        x = slot_rates(g, rng(3), 10**6)
        assert abs(x.mean() - 0.5) < 4.0 * math.sqrt(g.variance / 10**6)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.5, 3.7])
    def test_exponential_draws_are_numpy_exponential_draws(self, lam):
        # numpy's shape-1 gamma sampler reads the stream exactly as its
        # exponential sampler does, so seeded exp: Monte Carlo is unchanged
        dist = Exponential(lam)
        assert np.array_equal(slot_rates(dist, rng(13), 1000), rng(13).exponential(1.0 / lam, 1000))

    @pytest.mark.parametrize("dist,theta", [
        (Exponential(2.5), 1.0),
        (GammaRate(2.0, 2.0), 0.8),
        (PoissonRate(2.0), math.log(1.5)),
        (TwoPoint(0.75, 1.0, 5.0), 0.4),
        (DeterministicRate(2.0), 0.5),
    ], ids=["exp", "gamma", "pois", "twopoint", "det"])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_pooled_slot_sum_mean(self, dist, theta, twisted):
        # the pooled sum of the 10 slot rates at N = 100, alpha = 0.5, over
        # its slot count, has the mean CGF'(theta) and variance CGF''(theta)/10
        theta = theta if twisted else None
        draw, slot_count = _slot_sampler(dist, 0.5, 100.0, theta=theta)
        n = 10**5
        x = draw(rng(11), n) / slot_count
        _, mean, variance = (float(v) for v in dist.cgf(0.0 if theta is None else theta))
        if variance == 0.0:
            assert np.all(x == mean)
        else:
            assert abs(x.mean() - mean) < 4.0 * math.sqrt(variance / slot_count / n)


class TestParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("exp:2.5", Exponential(2.5)),
            ("gamma:2,2", GammaRate(2.0, 2.0)),
            ("pois:0.1", PoissonRate(0.1)),
            ("twopoint:0.75,1,5", TwoPoint(0.75, 1.0, 5.0)),
            ("det:1.5", DeterministicRate(1.5)),
        ],
    )
    def test_round_trip(self, text, expected):
        dist = parse_rate(text)
        assert dist == expected
        assert parse_rate(dist.label()) == expected

    @given(st.one_of(
        st.builds(GammaRate, SIX_DIGITS, SIX_DIGITS),
        st.builds(PoissonRate, SIX_DIGITS),
        st.builds(DeterministicRate, SIX_DIGITS),
        st.builds(lambda p, levels: TwoPoint(p, *sorted(levels)),
                  st.integers(1, 999_999).map(lambda m: float(f"{m}e-6")),
                  st.sets(SIX_DIGITS, min_size=2, max_size=2)),
    ))
    @settings(max_examples=300, deadline=None)
    def test_label_round_trip_property(self, dist):
        assert parse_rate(spec_label(dist)) == dist

    @given(st.sampled_from([ExpService, DetService, Pareto2Service]), SIX_DIGITS)
    @settings(max_examples=100, deadline=None)
    def test_service_label_round_trip_property(self, kind, mean):
        service = kind(mean)
        assert parse_service(spec_label(service)) == service

    def test_exponential_is_shape_one_gamma(self):
        assert parse_rate("exp:2.5") == parse_rate("gamma:1,2.5") == GammaRate(1.0, 2.5)
        assert GammaRate(1.0, 2.5).label() == "exp:2.5"

    @pytest.mark.parametrize(
        "text",
        [
            "exp",
            "exp:",
            "exp:1,2",
            "norm:1",
            "exp: 1",
            "exp:1 ",
            "twopoint:0.75,5,1",
            "gamma:2",
            "exp:-1",
            "pois:abc",
            "exp:inf",
            "pois:inf",
            "det:inf",
            "gamma:inf,1",
            "gamma:1,inf",
            "twopoint:0.5,1,inf",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_rate(text)
