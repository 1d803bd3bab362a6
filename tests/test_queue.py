import decimal
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import SUBPROCESS_ENV
from mixpois import queue, sampling
from mixpois.errors import (
    ConvergenceError,
    DomainError,
    HypothesisWarning,
    MgfDomainError,
    ParseError,
    RarityError,
)
from mixpois.gamma_exact import GammaCase, P_exact
from mixpois.numerics import (
    Interval,
    QuadratureSpec,
    ceil_count,
    find_root_increasing,
    gauss_legendre,
    integrate,
)
from mixpois.queue import (
    DetService,
    ExpService,
    Pareto2Service,
    load_and_variance,
    mc_Q,
    mean_load,
    omega_vector,
    parse_service,
    queue_approx,
    theta_star_queue,
)
from mixpois.rates import (
    DeterministicRate,
    Exponential,
    GammaRate,
    PoissonRate,
    TwoPoint,
    parse_rate,
    rate_function,
    spec_label,
)
from mixpois.sampling import Z_95, stream
from mixpois.tail_asymptotics import DecayRate, approx_intermediate, log_asym_P
from reference import occupancy_pmf, poisson_pmf_digits, poisson_tail, twopoint_occupancy_pmf

POIS2 = PoissonRate(2.0)
SERVICES = [ExpService(0.5), DetService(0.5), Pareto2Service(0.5)]


def kinks_in_unit(service):
    """Where the complementary cdf jumps inside (0, 1): the breakpoints an
    adaptive reference quadrature needs."""
    if isinstance(service, DetService) and 0.0 < service.mean < 1.0:
        return (service.mean,)
    return ()


def quiet_queue_approx(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisWarning)
        return queue_approx(*args, **kwargs)


class TestServiceLaws:
    def test_sf_shapes(self):
        assert ExpService(0.5).sf(0.0) == 1.0
        assert DetService(0.5).sf(0.49) == 1.0
        assert DetService(0.5).sf(0.5) == 0.0
        assert Pareto2Service(0.5).sf(1.0) == pytest.approx(1.0 / 9.0)

    @pytest.mark.parametrize("service", SERVICES + [ExpService(1.0), DetService(1.0), Pareto2Service(0.05)])
    def test_integrals_match_quadrature(self, service):
        spec = QuadratureSpec(breakpoints=kinks_in_unit(service))
        quad = integrate(service.sf, Interval(0.0, 1.0), spec)
        assert service.sf_integral(0.0, 1.0) == pytest.approx(quad, abs=1e-11)

    @pytest.mark.parametrize("E", [1.0, 1e-200])
    def test_pareto_complement_stays_in_the_float_range(self, E):
        # t (2 + t) / (1 + t)^2 at t = x / E overflowed above t = 1e154; the
        # capped form raises no overflow, gives the same bits wherever that
        # form is finite, and 1 beyond
        t = np.logspace(-3.0, 300.0, 3031)
        x = t * E
        with np.errstate(all="raise"):
            got = Pareto2Service(E).sf_complement(x)
        with np.errstate(all="ignore"):
            uncapped = (x / E) * (2.0 + x / E) / (1.0 + x / E) ** 2
        finite = np.isfinite(uncapped)
        assert finite[0] and not finite[-1]
        assert np.array_equal(got[finite], uncapped[finite])
        assert np.all(got[~finite] == 1.0)

    def test_sq_totals(self):
        assert ExpService(0.7).sf_sq_integral_total() == pytest.approx(0.35, abs=1e-12)
        assert DetService(0.7).sf_sq_integral_total() == pytest.approx(0.7, abs=1e-12)
        assert Pareto2Service(0.6).sf_sq_integral_total() == pytest.approx(0.2, abs=1e-12)

    def test_parse(self):
        assert parse_service("exp:0.5") == ExpService(0.5)
        assert parse_service("det:1") == DetService(1.0)
        assert parse_service("pareto:0.05") == Pareto2Service(0.05)
        for bad in ("exp", "exp:", "exp:0", "exp:1,2", "norm:1", "det:-1", "exp :1",
                    "exp:inf", "pareto:inf", "det:nan"):
            with pytest.raises(ParseError):
                parse_service(bad)


class TestOmega:
    def test_deterministic_full_retention(self):
        assert omega_vector(10, DetService(1.0)) == pytest.approx([1.0] * 10, abs=1e-15)

    def test_deterministic_half(self):
        values = omega_vector(100, DetService(0.5))
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in values[:50])
        assert all(v == 0.0 for v in values[50:])

    # omega_i(10^6) for service mean 0.5 at slots i, from 50-digit mpmath of
    # N * int_{(i-1)/N}^{i/N} sf; the difference of sf antiderivatives lost
    # up to 3e-10 of these to cancellation
    PINNED_1E6 = {
        ExpService(0.5): {1: 0.9999990000006666663333, 500_000: 0.3678798090511287461213,
                          1_000_000: 0.1353354185719861520740},
        Pareto2Service(0.5): {1: 0.9999980000039999920000, 500_000: 0.2500002500002500002500,
                              1_000_000: 0.1111111851852345679342},
        DetService(0.5): {1: 1.0, 499_999: 1.0, 500_001: 0.0, 1_000_000: 0.0},
    }

    @pytest.mark.parametrize("service", list(PINNED_1E6))
    def test_pinned_at_a_million_slots(self, service):
        values = omega_vector(10**6, service)
        for i, exact in self.PINNED_1E6[service].items():
            assert values[i - 1] == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_deterministic_cutoff_slot(self):
        # the cutoff 0.5 ends slot 500000 of 10^6, whose left end 499999/10^6
        # rounds by 2.7e-17; in slot units N*E - (i - 1) carries no rounding
        values = omega_vector(10**6, DetService(0.5))
        assert values[499_999] == 1.0
        assert math.fsum(values) == 10**6 * 0.5

    def test_array_matches_floats(self):
        u = [0.0, 0.25, 0.5, 0.75]
        for service in SERVICES:
            values = service.sf_integral(np.array(u), 0.25)
            assert list(values) == [service.sf_integral(x, 0.25) for x in u]

    def test_exponential_sum(self):
        total = omega_vector(100, ExpService(0.5)).sum() / 100.0
        assert total == pytest.approx(0.5 * (1.0 - math.exp(-2.0)), abs=1e-13)

    @pytest.mark.parametrize("service", SERVICES)
    @pytest.mark.parametrize("N", [10, 100, 1000])
    def test_sum_telescopes_exactly(self, service, N):
        assert omega_vector(N, service).sum() / N == pytest.approx(
            service.sf_integral(0.0, 1.0), abs=1e-12
        )

    def test_crossing_pattern(self):
        det = omega_vector(100, DetService(0.5))
        par = omega_vector(100, Pareto2Service(0.5))
        exp_ = omega_vector(100, ExpService(0.5))
        assert all(par[i] < det[i] for i in range(50))
        assert all(par[i] > det[i] for i in range(50, 100))
        sums = {"det": det.sum(), "exp": exp_.sum(), "pareto": par.sum()}
        assert sums["pareto"] == min(sums.values())

    def test_slot_count_errors(self):
        for N in (0, -1, 1.5):
            with pytest.raises(DomainError):
                omega_vector(N, ExpService(1.0))


class TestThetaStar:
    def test_flat_service_recovers_compound_tilt(self):
        # complementary cdf identically one on the unit interval
        for lam, a in ((2.5, 1.0), (1.0, 2.0)):
            theta = theta_star_queue(Exponential(lam), DetService(1.0), a)
            assert theta == pytest.approx(math.log(a * (1.0 + lam) / (1.0 + a)), abs=1e-10)

    def test_deterministic_rate_closed_form(self):
        for service in SERVICES:
            rho = 2.0 * service.sf_integral(0.0, 1.0)
            theta = theta_star_queue(DeterministicRate(2.0), service, 1.7)
            assert theta == pytest.approx(math.log(1.7 / rho), abs=1e-10)

    def test_table_point_is_finite_positive(self):
        theta = theta_star_queue(POIS2, ExpService(0.5), 1.2602)
        assert 0.0 < theta < 1.0

    def test_rarity(self):
        with pytest.raises(RarityError):
            theta_star_queue(POIS2, ExpService(0.5), 0.5)

    def test_mgf_exhaustion_reported(self):
        # exponential rates cap the reachable occupancy
        with pytest.raises(MgfDomainError):
            theta_star_queue(Exponential(2.5), ExpService(0.5), 500.0)

    def test_tilt_limit_below_a_far_wall(self):
        # the MGF wall lies at a tilt of 460.5; the search stops at 350 first
        with pytest.raises(DomainError, match="needs a tilt above 350") as raised:
            theta_star_queue(Exponential(1e200), ExpService(1.0), 1e160)
        assert not isinstance(raised.value, MgfDomainError)

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_level_rejected(self, a):
        with pytest.raises(DomainError, match="finite"):
            theta_star_queue(POIS2, ExpService(0.5), a)

    @pytest.mark.parametrize("factor", [1.2, 2.0, 4.0])
    @pytest.mark.parametrize("rate,service", [("gamma:2,1e-4", "pareto:0.5"),
                                              ("exp:1e-3", "exp:1"), ("pois:1e4", "exp:1")])
    def test_cold_solve_evaluations_at_large_levels(self, rule_calls, rate, service, factor):
        # at mean loads in the hundreds to thousands the level stop, 1e-14 a,
        # lies above the rule's rounding of a(theta); an absolute stop of
        # 1e-12 lay below it, so the search bisected to adjacent floats (38
        # main-rule evaluations at 4 x the first law's mean load)
        dist, service = parse_rate(rate), parse_service(service)
        check = queue._rule(service).check
        theta_star_queue(dist, service, factor * mean_load(dist, service))
        assert sum(rule is not check for rule, _ in rule_calls) <= 15


class TestQueueApprox:
    def test_flat_service_matches_compound_route(self):
        for a, N in ((1.0, 50.0), (2.0, 100.0)):
            qa = quiet_queue_approx(Exponential(2.5), DetService(1.0), N, a)
            tail, point = approx_intermediate(Exponential(2.5), a, N)
            assert qa.log_Q_check == pytest.approx(tail.log_value, abs=1e-10)
            assert qa.log_q_check == pytest.approx(point.log_value, abs=1e-10)

    def test_flat_service_sigma(self):
        qa = quiet_queue_approx(Exponential(2.5), DetService(1.0), 50.0, 1.0)
        assert qa.sigma2 == pytest.approx(1.0 * (1.0 + 1.0), rel=1e-10)

    def test_deterministic_rate_is_stirling_poisson(self):
        service = ExpService(0.5)
        N, a = 100.0, 1.3
        qa = quiet_queue_approx(DeterministicRate(2.0), service, N, a)
        rho = 2.0 * service.sf_integral(0.0, 1.0)
        stirling = N * a * math.log(rho / a) + N * (a - rho) - 0.5 * math.log(2.0 * math.pi * N * a)
        assert qa.log_q_check == pytest.approx(stirling, abs=1e-10)
        assert qa.sigma2 == pytest.approx(a, rel=1e-12)

    def test_tail_point_relation(self):
        qa = queue_approx(POIS2, ExpService(0.5), 100.0, 1.3)
        assert qa.log_Q_check - qa.log_q_check == pytest.approx(
            -math.log(-math.expm1(-qa.theta_star)), rel=1e-12
        )

    @pytest.mark.parametrize("N,a", [(math.inf, 1.3), (math.nan, 1.3), (100.0, math.inf),
                                     (100.0, math.nan)])
    def test_non_finite_inputs_rejected(self, N, a):
        with pytest.raises(DomainError, match="finite"):
            queue_approx(POIS2, ExpService(0.5), N, a)

    def test_hypothesis_flag(self):
        with pytest.warns(HypothesisWarning):
            queue_approx(POIS2, DetService(0.5), 100.0, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", HypothesisWarning)
            queue_approx(POIS2, ExpService(0.5), 100.0, 1.3)

    def test_one_checked_quadrature_pair(self, rule_calls):
        # the tilt solve checks the integrals its search found at the root,
        # by one evaluation of the check rule, and hands them on
        service = ExpService(0.5)
        check = queue._rule(service).check
        queue_approx(POIS2, service, 100.0, 1.3)
        assert [rule for rule, _ in rule_calls].count(check) == 1
        assert len(rule_calls) > 2
        main_taus = [tau for rule, tau in rule_calls if rule is not check]
        assert len(set(main_taus)) == len(main_taus)  # no tilt evaluated twice

    @pytest.mark.parametrize("service", [ExpService(0.5), Pareto2Service(0.5)])
    def test_sigma_matches_tilted_cgf_curvature(self, service):
        # finite-difference second derivative of the integrated CGF at the tilt
        a = 1.3
        qa = queue_approx(POIS2, service, 100.0, a)
        spec = QuadratureSpec(breakpoints=kinks_in_unit(service))

        def psi(theta):
            tau = math.expm1(theta)
            return integrate(lambda x: POIS2.cgf(service.sf(x) * tau)[0], Interval(0.0, 1.0), spec)

        h = 1e-5
        curvature = (psi(qa.theta_star + h) - 2.0 * psi(qa.theta_star) + psi(qa.theta_star - h)) / h**2
        assert qa.sigma2 == pytest.approx(curvature, rel=1e-6)

    def test_boundary_trend(self):
        # approaching the rarity boundary from above: the tilt falls to zero
        # and the log-tail rises monotonically (no oscillation)
        load = mean_load(POIS2, ExpService(0.5))
        factors = (2.0, 1.6, 1.3, 1.15, 1.08)
        approxes = [queue_approx(POIS2, ExpService(0.5), 100.0, load * f) for f in factors]
        thetas = [qa.theta_star for qa in approxes]
        logs = [qa.log_Q_check for qa in approxes]
        assert thetas == sorted(thetas, reverse=True)
        assert logs == sorted(logs)
        assert all(l < 0.0 for l in logs)
        assert thetas[-1] < 0.2

    def test_settles_at_the_mgf_wall(self):
        # exponential rates at a level near the one their MGF domain reaches
        # (15.54): sigma^2 is 3.8e7, so the level moves by about 1e-9 per float
        # of theta, and the solve runs to adjacent floats.  A stop on a tilt
        # bracket 1e-12 wide left Q 9.3e-6 off the value at the bisected tilt
        dist, service, N, a = Exponential(0.5), Pareto2Service(0.5), 2.0, 13.0
        rule = queue._rule(service)

        def level(theta):
            return math.exp(theta) * rule.integrals(dist, math.expm1(theta))[1]

        lo, hi = 0.0, queue._tilt_cap_exp(dist)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if level(mid) < a else (lo, mid)
        tau = math.expm1(lo)
        bisected = queue._approx_from(N, lo, a, rule.integrals(dist, tau), checked=True)
        assert queue_approx(dist, service, N, a).Q_check == pytest.approx(bisected.Q_check,
                                                                            rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("law", [PoissonRate, DeterministicRate], ids=lambda law: law.__name__)
    @pytest.mark.parametrize("service", SERVICES, ids=spec_label)
    def test_rate_scaling_twins(self, law, service):
        # the CGFs of Poisson and point-mass rate laws are linear in lam, so
        # rates c lam, levels c a and scales N / c leave every tilt and log
        # value unchanged; a tilt search that stopped at an absolute level
        # gap gave theta = 0.5 at c = 1e-13 for det rates at det service,
        # whose tilt is log 1.5.  At c = 1e6 and 1e100 the search stops at a
        # gap of 1e-14 relative to the level, above the rounding of a(theta)
        def logs(c):
            dist = law(2.0 * c)
            qa = quiet_queue_approx(dist, service, 1000.0 / c, 1.7 * c)
            P, p = approx_intermediate(dist, 3.0 * c, 1000.0 / c)
            return [theta_star_queue(dist, service, 1.5 * c), qa.theta_star, qa.log_Q_check,
                    qa.log_q_check, math.log(qa.sigma2 / c), P.log_value, p.log_value]

        expected = logs(1.0)
        for c in (1e-6, 1e-13, 1e-100, 1e-200, 1e6, 1e100):
            assert logs(c) == pytest.approx(expected, rel=1e-12, abs=0.0), c


RATE_LAWS = [Exponential(2.5), GammaRate(2.0, 1.5), POIS2, TwoPoint(0.75, 1.0, 5.0),
             DeterministicRate(2.0)]


class TestOccupancyQuadrature:
    """The fixed Gauss-Legendre rule behind the occupancy integrals."""

    @pytest.mark.parametrize("dist,beta", [(Exponential(2.5), 1.0), (GammaRate(2.0, 1.5), 2.0),
                                           (Exponential(0.5), 1.0)])
    @pytest.mark.parametrize("E", [0.05, 0.5, 1.0])
    def test_closed_form_at_the_wall(self, dist, beta, E):
        # int_0^1 beta e^{-x/E} / (lam - tau e^{-x/E}) dx
        #   = (beta E / tau) ln((lam - tau e^{-1/E}) / (lam - tau))
        lam, service = dist.lam, ExpService(E)
        taus = [lam * (1.0 - r) for r in (1e-3, 1e-6, 1e-9)]
        taus.append(math.expm1(queue._tilt_cap_exp(dist)))
        for tau in taus:
            gap = lam - tau  # exact: tau is within a factor 2 of lam
            exact = beta * E / tau * (math.log(gap - tau * math.expm1(-1.0 / E)) - math.log(gap))
            rule = queue._rule(service)
            _, slope, _ = rule.checked(dist, tau, rule.integrals(dist, tau))
            assert slope == pytest.approx(exact, rel=1e-12), gap / lam

    @pytest.mark.parametrize("dist", RATE_LAWS, ids=spec_label)
    @pytest.mark.parametrize("service", [ExpService(0.5), DetService(0.5), DetService(0.05),
                                         Pareto2Service(0.05)], ids=spec_label)
    def test_matches_adaptive_quadrature_away_from_the_wall(self, dist, service):
        theta = theta_star_queue(dist, service, 1.5 * mean_load(dist, service))
        tau = math.expm1(theta)
        if math.isfinite(dist.mgf_domain_sup):
            assert (dist.mgf_domain_sup - tau) / dist.mgf_domain_sup >= 0.1
        spec = QuadratureSpec(breakpoints=kinks_in_unit(service), abs_tol=1e-16,
                              rel_tol=1e-12)

        def reference(f):
            return integrate(lambda x: f(float(service.sf(x))), Interval(0.0, 1.0), spec)

        expected = (
            reference(lambda s: dist.cgf(tau * s)[0]),
            reference(lambda s: dist.cgf(tau * s)[1] * s),
            reference(lambda s: dist.cgf(tau * s)[2] * s * s),
        )
        rule = queue._rule(service)
        got = rule.checked(dist, tau, rule.integrals(dist, tau))
        for value, ref in zip(got, expected):
            assert value == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("dist", RATE_LAWS, ids=spec_label)
    def test_unit_rule_is_the_cgf_triple(self, dist):
        # the one-node rules, of the balanced regime and of deterministic
        # service, return the CGF triple times their weight as floats, bit
        # for bit the weighted sums of the generic rule, overflows and NaNs
        # included
        sup = dist.mgf_domain_sup
        taus = [0.0, 1e-300, 1e-8, 0.3, math.expm1(0.7), 5.0, 50.0, 700.0, 1e300,
                sup * (1.0 - 1e-3), sup * (1.0 - 1e-9)]
        weights = {queue._UNIT_RULE: 1.0,
                   **{queue._rule(DetService(E)): min(E, 1.0) for E in (0.05, 0.5, 1.0, 2.0)}}
        for rule, weight in weights.items():
            assert isinstance(rule, queue._UnitRule) and rule.check is None
            assert rule.weighted == (weight, weight, weight)
            for tau in taus:
                if tau < sup:
                    got = rule.integrals(dist, tau)
                    assert all(type(value) is float for value in got)
                    generic = queue._Rule.integrals(rule, dist, tau)
                    assert [value.hex() for value in got] == [value.hex() for value in generic], tau

    def test_disagreeing_check_rule_raises(self, monkeypatch):
        service = ExpService(0.5)
        rule = queue._rule(service)
        nodes, weights = gauss_legendre([0.0, 1.0], 2)
        crude = queue._Rule(weights, service.sf(nodes), service.sf_complement(nodes), None)
        monkeypatch.setattr(rule, "check", crude)
        with pytest.raises(ConvergenceError, match="order"):
            queue_approx(POIS2, service, 100.0, 1.3)

    def test_rules_built_on_first_use_only(self):
        # parsing specifications must not build quadrature rules, and no
        # numpy submodule that `import numpy` leaves unloaded (numpy.polynomial,
        # numpy.ma) may be loaded: each adds set-up time and memory
        code = (
            "import sys\n"
            "from mixpois import cli, queue, rates\n"
            "cli.build_parser()\n"
            "queue.parse_service('exp:0.5'); rates.parse_rate('pois:2')\n"
            "assert queue._rule.cache_info().currsize == 0\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "queue.queue_approx(rates.PoissonRate(2.0), queue.ExpService(0.5), 100.0, 1.3)\n"
            "assert queue._rule.cache_info().currsize == 1\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr


class TestMcQ:
    # Poisson rates draw the occupancy from counts of marked units, at any
    # mean; the deterministic service leaves half the slots without retention
    ORACLE_CASES = [pytest.param(lam, service, id=f"{lam}-{spec_label(service)}")
                    for lam, service in [(0.1, ExpService(0.5)), (2.0, ExpService(0.5)),
                                         (9.5, ExpService(0.5)), (12.0, ExpService(0.5)),
                                         (20.0, ExpService(0.5)), (2.0, DetService(0.5)),
                                         (2.0, Pareto2Service(0.5))]]

    def test_certain(self):
        r = mc_Q(POIS2, ExpService(0.5), 10, 0.0, 1000, 0)
        assert r.estimate == 1.0

    def test_deterministic_rate_reduces_to_poisson_tail(self):
        # without rate mixing the occupancy is exactly Poisson
        service = ExpService(0.5)
        N, a = 50, 0.8
        r = mc_Q(DeterministicRate(2.0), service, N, a, 4 * 10**5, 3)
        mean = 2.0 * omega_vector(N, service).sum()
        exact = poisson_tail(mean, ceil_count(N * a))
        assert abs(r.estimate - exact) < 4.0 * (r.ci_halfwidth_95 / Z_95)

    def test_requires_integer_slots(self):
        with pytest.raises(DomainError):
            mc_Q(POIS2, ExpService(0.5), 10.5, 1.0, 100, 0)

    @pytest.mark.parametrize("lam,service", ORACLE_CASES)
    def test_poisson_rates_match_neyman_type_a_oracle(self, lam, service):
        N = 10
        pmf = occupancy_pmf(lam, omega_vector(N, service))
        tails = np.cumsum(pmf[::-1])[::-1]
        k = int(np.argmax(tails < 0.05))  # the first count with a tail below 5%
        exact = math.fsum(pmf[k:])
        covered = 0
        for seed in range(1000, 1020):
            r = mc_Q(PoissonRate(lam), service, N, k / N, 20_000, seed)
            covered += abs(r.estimate - exact) <= 4.0 * (r.ci_halfwidth_95 / Z_95)
        assert covered >= 19  # 95% of 20 independently seeded repetitions

    # the 20 repetitions above pooled into one estimate of 4e5 runs, which
    # shows a bias too small for any single repetition to show
    @pytest.mark.parametrize("lam,service", ORACLE_CASES)
    def test_poisson_rates_pooled_over_seeds_match_neyman_type_a_oracle(self, lam, service):
        N = 10
        pmf = occupancy_pmf(lam, omega_vector(N, service))
        tails = np.cumsum(pmf[::-1])[::-1]
        k = int(np.argmax(tails < 0.05))
        exact = math.fsum(pmf[k:])
        results = [mc_Q(PoissonRate(lam), service, N, k / N, 20_000, seed)
                   for seed in range(1000, 1020)]
        pooled = math.fsum(r.estimate for r in results) / len(results)
        pooled_se = math.sqrt(math.fsum((r.ci_halfwidth_95 / Z_95) ** 2 for r in results))
        assert abs(pooled - exact) <= 4.0 * pooled_se / len(results)

    # 20 seeds x 2e5 runs at N = 100 against the exact occupancy tail: fig 4
    # at a = 0.2 (8.2519e-4) and the Criterion-3 row of pois:2 rates at its
    # tabulated level (7.2138e-4)
    @pytest.mark.parametrize("lam,service,a", [(0.1, ExpService(1.0), 0.2),
                                               (2.0, ExpService(0.5), 1.2602)],
                             ids=["fig4", "criterion3"])
    def test_poisson_rates_at_N_100_pooled_over_seeds_match_the_occupancy_pmf(self, lam,
                                                                              service, a):
        N = 100
        exact = math.fsum(occupancy_pmf(lam, omega_vector(N, service))[ceil_count(N * a):])
        results = [mc_Q(PoissonRate(lam), service, N, a, 200_000, seed)
                   for seed in range(2000, 2020)]
        pooled = math.fsum(r.estimate for r in results) / len(results)
        pooled_se = math.sqrt(math.fsum((r.ci_halfwidth_95 / Z_95) ** 2 for r in results))
        assert abs(pooled - exact) <= 4.0 * pooled_se / len(results)

    # two-point rates at q = 1 - p of 0.25 and 0.7 against the slot-by-slot
    # convolution, pooled over 20 seeds as above
    @pytest.mark.parametrize("service", SERVICES, ids=spec_label)
    @pytest.mark.parametrize("p", [0.75, 0.3])
    def test_twopoint_rates_pooled_over_seeds_match_convolution_oracle(self, p, service):
        N = 10
        pmf = twopoint_occupancy_pmf(p, 1.0, 5.0, omega_vector(N, service))
        tails = np.cumsum(pmf[::-1])[::-1]
        k = int(np.argmax(tails < 0.05))
        exact = math.fsum(pmf[k:])
        results = [mc_Q(TwoPoint(p, 1.0, 5.0), service, N, k / N, 20_000, seed)
                   for seed in range(1000, 1020)]
        pooled = math.fsum(r.estimate for r in results) / len(results)
        pooled_se = math.sqrt(math.fsum((r.ci_halfwidth_95 / Z_95) ** 2 for r in results))
        assert abs(pooled - exact) <= 4.0 * pooled_se / len(results)

    # the two-point occupancy law that mc_Q tables, the convolution of the
    # slot mixtures, normalised, against the slot-by-slot convolution within
    # 2^-50 per value, the alias table's own bound; the largest difference on
    # this grid, 5.4e-16 at det:0.5 service, N = 100 and p = 0.3, is the
    # oracle's, whose values lie 5.5e-16 from the exact binomial mixture of
    # Poisson pmfs there, against 1e-17 for the tabled law's
    @pytest.mark.parametrize("N", [1, 37, 100])
    @pytest.mark.parametrize("service", SERVICES + [ExpService(0.05)], ids=spec_label)
    @pytest.mark.parametrize("p", [0.75, 0.3])
    def test_twopoint_occupancy_law_is_the_convolution_of_the_slot_laws(self, p, service, N):
        omegas = omega_vector(N, service)
        law = queue._occupancy_law(TwoPoint(p, 1.0, 5.0), omegas)
        law = law / math.fsum(law)
        ref = twopoint_occupancy_pmf(p, 1.0, 5.0, omegas)
        assert law.size <= ref.size and np.all(ref[law.size:] < 2.0**-50)
        assert np.all(np.abs(law - ref[:law.size]) <= 2.0**-50)

    # under det:1 service every retention is 1, and the gamma-rate occupancy
    # is the negative binomial count of gamma_exact at alpha = 1: the tails
    # of its law, the convolution of the slot counts, are the exact ones
    @pytest.mark.parametrize("N", [1, 37, 100])
    def test_gamma_occupancy_law_has_the_exact_tails(self, N):
        dist = GammaRate(2.0, 1.0)
        law = queue._occupancy_law(dist, omega_vector(N, DetService(1.0)))
        law = law / math.fsum(law)
        for a in (1.05 * dist.mean, 1.25 * dist.mean):
            exact = P_exact(GammaCase(dist.beta, dist.lam, 1.0, a, N))
            assert math.fsum(law[ceil_count(N * a):]) == pytest.approx(exact, rel=1e-12)

    # 20 seeds x 2e5 runs of the tabled law at the Criterion-3 row of
    # two-point rates, k = 130, against its exact tail (9.0089e-4)
    def test_twopoint_rates_at_N_100_pooled_over_seeds_match_the_convolution_oracle(self):
        N, service = 100, ExpService(0.5)
        exact = math.fsum(twopoint_occupancy_pmf(0.75, 1.0, 5.0, omega_vector(N, service))[130:])
        results = [mc_Q(TwoPoint(0.75, 1.0, 5.0), service, N, 1.2991, 200_000, seed)
                   for seed in range(2000, 2020)]
        pooled = math.fsum(r.estimate for r in results) / len(results)
        pooled_se = math.sqrt(math.fsum((r.ci_halfwidth_95 / Z_95) ** 2 for r in results))
        assert abs(pooled - exact) <= 4.0 * pooled_se / len(results)

    # slots without retention add nothing: with none left the occupancy is 0
    @pytest.mark.parametrize("dist", [POIS2, TwoPoint(0.75, 1.0, 5.0), GammaRate(2.0, 1.0),
                                      DeterministicRate(2.0)], ids=spec_label)
    def test_occupancy_without_retention(self, dist):
        assert np.array_equal(queue._occupancy_law(dist, np.zeros(3)), [1.0])

    # the table is declined where the occupancy's mean m and standard
    # deviation s put m + 12 s + 32 past 2^16 values: under exp:0.5 service
    # two-point rates are tabled at N = 2000 (m = 1729), which a bound of
    # 2^12 on a Poisson count of mean lam2 sum omega_i (4323) once declined,
    # and declined at N = 10^5 (m = 86466), as gamma rates are
    @pytest.mark.parametrize("dist,N,tabled", [
        (TwoPoint(0.75, 1.0, 5.0), 2000, True), (TwoPoint(0.75, 1.0, 5.0), 10**5, False),
        (GammaRate(2.0, 1.0), 2000, True), (GammaRate(2.0, 1.0), 10**5, False)],
        ids=["twopoint-2000", "twopoint-1e5", "gamma-2000", "gamma-1e5"])
    def test_occupancy_table_bound(self, dist, N, tabled):
        omegas = omega_vector(N, ExpService(0.5))
        law = queue._occupancy_law(dist, omegas)
        assert (law is not None) == tabled
        assert law is None or law.size <= 2**queue._OCCUPANCY_BITS

    # an occupancy mean past the float range declines the table, and the
    # bound's own arithmetic warns of no overflow
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_occupancy_law_declines_an_infinite_bound(self):
        omegas = omega_vector(10, ExpService(1.0))
        assert queue._occupancy_law(TwoPoint(0.5, 1.0, 1e308), omegas) is None

    # where no table is built, Poisson rates draw their marked counts with
    # numpy, and other rates their slot rates and the k-th epoch: both meet
    # the exact occupancy tail
    @pytest.mark.parametrize("dist,service", [
        (PoissonRate(12.0), ExpService(0.5)), (TwoPoint(0.75, 1.0, 5.0), ExpService(0.5)),
        (TwoPoint(0.3, 1.0, 5.0), ExpService(0.5)), (GammaRate(2.0, 1.0), DetService(1.0)),
        (DeterministicRate(2.0), ExpService(0.5))],
        ids=["pois", "twopoint-0.75", "twopoint-0.3", "gamma", "det"])
    def test_rates_past_the_table_bound(self, monkeypatch, dist, service):
        N = 100
        omegas = omega_vector(N, service)
        a = 1.05 * mean_load(dist, service)
        k = ceil_count(N * a)
        if isinstance(dist, PoissonRate):
            exact = math.fsum(occupancy_pmf(dist.lam, omegas)[k:])
        elif isinstance(dist, TwoPoint):
            exact = math.fsum(twopoint_occupancy_pmf(dist.p, dist.lam1, dist.lam2, omegas)[k:])
        elif isinstance(dist, GammaRate):
            exact = P_exact(GammaCase(dist.beta, dist.lam, 1.0, a, N))
        else:
            exact = poisson_tail(dist.lam * math.fsum(omegas), k)
        declined = []
        monkeypatch.setattr(queue, "_occupancy_law", lambda *args: declined.append(args) or None)
        r = mc_Q(dist, service, N, a, 200_000, 5)
        assert len(declined) == 1
        assert abs(r.estimate - exact) <= 4.0 * (r.ci_halfwidth_95 / Z_95)
        if isinstance(dist, PoissonRate):  # the marked counts are drawn in run order
            monkeypatch.setattr(sampling, "_BLOCK_SCALARS", 999)
            assert mc_Q(dist, service, N, a, 200_000, 5) == r

    # the marks y of the slot-rate units: their mean counts add up to the
    # units that add any occupant and, weighed by y, to the mean load, and
    # the table ends where fewer than 2^-53 units are expected to add more
    @pytest.mark.parametrize("service", SERVICES, ids=spec_label)
    @pytest.mark.parametrize("N", [1, 100, 1000])
    @pytest.mark.parametrize("lam", [0.1, 2.0, 20.0])
    def test_mark_table(self, lam, N, service):
        omegas = omega_vector(N, service)
        means = queue._mark_means(lam, omegas)
        Y = means.size - 1
        # against the terms built one mark at a time: each differs in at most
        # 2 roundings per mark
        term, loop = np.exp(-omegas), []
        for y in range(Y + 1):
            term = term if y == 0 else term * omegas / y
            loop.append(lam * np.add.reduce(term))
        assert np.allclose(means, loop, rtol=2 * (Y + 1) * np.finfo(float).eps, atol=0.0)
        marking = N * lam * -np.expm1(-omegas).mean()
        assert math.fsum(means[1:]) == pytest.approx(marking, rel=1e-12)
        assert math.fsum(np.arange(Y + 1) * means) == pytest.approx(lam * omegas.sum(), rel=1e-12)
        assert N * lam / math.factorial(Y + 1) < 2.0**-53

    # mc_Q hits where the k-th epoch of a unit-rate Poisson process falls by
    # the run's rate sum mu: P(Gamma(k, 1) <= mu) = P(Pois(mu) >= k)
    @pytest.mark.parametrize("k,mu", [
        (0, 0.0), (0, 2.5), (1, 0.0), (1, 0.7), (20, 0.0), (20, 16.0), (20, 23.0),
        (127, 0.0), (127, 112.0), (127, 131.0),
    ])
    def test_kth_epoch_hit_frequency_is_the_poisson_tail(self, k, mu):
        draws = 10**6
        hits = np.count_nonzero(stream(k).standard_gamma(k, size=draws) <= mu)
        if k == 0:
            exact = 1.0
        else:
            exact = poisson_tail(mu, k) if mu > 0.0 else 0.0
        se = math.sqrt(exact * (1.0 - exact) / draws)
        assert abs(hits / draws - exact) <= 4.0 * se


class TestAliasTables:
    """The alias table of an occupancy law (sampling._alias_tables) holds the
    law, and a draw reads its entry as the thresholds say."""

    @staticmethod
    def weights(threshold, alias):
        """Each value's weight in the table, exact in integers: its own
        entry's threshold plus what the entries aliased to it leave over."""
        capacity = 2**sampling._WEIGHT_BITS // threshold.size
        weight = threshold.copy()
        np.add.at(weight, alias, capacity - threshold)
        return weight

    # at N = 100 the table of the Poisson-rate occupancy holds the sum of
    # the marked counts y C_y over every mark y: its weights are the
    # convolution of their Poisson pmfs, each stretched by its mark, and it
    # leaves out a mass below 2^-60 for each count cut and the cut of the sum
    @pytest.mark.parametrize("service", [ExpService(0.5), ExpService(1.0)], ids=spec_label)
    @pytest.mark.parametrize("lam", [0.1, 2.0, 20.0])
    def test_sum_table_holds_the_convolved_pmfs(self, lam, service):
        omegas = omega_vector(100, service)
        means = queue._mark_means(lam, omegas)
        law = queue._occupancy_law(PoissonRate(lam), omegas)
        weight = self.weights(*sampling._alias_tables(law))
        total = 2**sampling._WEIGHT_BITS
        assert int(weight.sum()) == total and not weight[law.size:].any()
        with decimal.localcontext() as context:
            context.prec = 50
            pmf = np.zeros(law.size, dtype=object)
            pmf[0] = decimal.Decimal(1)
            for y in range(1, means.size):  # convolved residue class by residue class mod y
                count = poisson_pmf_digits(means[y], -(-law.size // y))
                # terms below 1e-40 past the largest change no entry by 2^-100
                count = np.array(count[:1 + max(v for v, p in enumerate(count) if p >= 1e-40)],
                                 dtype=object)
                for r in range(y):
                    pmf[r::y] = np.convolve(pmf[r::y], count)[:pmf[r::y].size]
            error = max(abs(decimal.Decimal(int(x)) / total - p) for x, p in zip(weight, pmf))
            assert error <= decimal.Decimal(2.0**-50)
            assert 1 - sum(pmf) < means.size * decimal.Decimal(2.0**-60)

    # the weights of any law, zeros included, sum to 2^_WEIGHT_BITS and give
    # each value its share within 2^-50
    @pytest.mark.parametrize("size", [1, 2, 5, 64, 1000, 2**16])
    def test_tables_of_random_laws(self, size):
        rng = np.random.default_rng(size)
        for power in (1, 4, 20):
            law = rng.random(size) ** power * (rng.random(size) < 0.7) + (np.arange(size) == 0)
            weight = self.weights(*sampling._alias_tables(law))
            assert weight.sum() == 2**sampling._WEIGHT_BITS
            share = law / math.fsum(law)
            assert np.all(np.abs(weight[:size] / 2.0**sampling._WEIGHT_BITS - share) <= 2.0**-50)
            assert not weight[size:].any()

    # a raw word picks its entry by its top bits and compares only its low
    # bits with the entry's threshold; the bits between are ignored
    @pytest.mark.parametrize("law", [np.arange(1.0, 6.0), np.array([0.5, 0.5]),
                                     np.array([0.0, 0.0, 1.0])], ids=["ramp", "coin", "point"])
    def test_draw_reads_the_threshold_and_the_alias(self, law):
        threshold, alias = sampling._alias_tables(law)
        draw = sampling._alias_sampler(law)
        size = threshold.size
        capacity = 2**sampling._WEIGHT_BITS // size
        entry = np.arange(size, dtype=np.uint64)
        top = entry << np.uint64(64 - (size.bit_length() - 1))
        middle = np.uint64(2**64 // size - capacity)
        t = threshold.astype(np.uint64)
        own, other = t > 0, t < capacity
        assert np.array_equal(draw(top[own] | middle | (t[own] - np.uint64(1))), entry[own])
        assert np.array_equal(draw(top[other] | t[other]), alias[other])

    # a count's table ends at 2^12 entries: the mark-1 count of pois:200
    # under exp:1 at N = 100, of mean 6486, has none, so neither has the
    # occupancy, nor where the mark-1 count is past the bound at pois:2,
    # N = 10^4 and pois:20, N = 1000; their runs draw the marked counts with
    # numpy
    def test_table_size_bound(self):
        below, above = sampling._poisson_laws(np.array([3500.0, 3600.0]))
        assert below.size <= 2**12 and above is None
        pmf = poisson_pmf_digits(3500.0, below.size)
        with decimal.localcontext() as context:
            context.prec = 50
            assert 1 - sum(pmf) < decimal.Decimal(2.0**-60)
        for lam, N in [(200.0, 100), (2.0, 10**4), (20.0, 1000)]:
            omegas = omega_vector(N, ExpService(1.0))
            assert sampling._poisson_laws(queue._mark_means(lam, omegas)[1:2])[0] is None
            assert queue._occupancy_law(PoissonRate(lam), omegas) is None


def log_asym_Q(dist, service, alpha, a):
    """The paper's decay rate of the occupancy tail for any alpha > 0."""
    queue._check_rare(dist, service, a)
    rule = queue._rule(service)
    if alpha > 1.0:
        return DecayRate(rate=rate_function(PoissonRate(mean_load(dist, service)), a).value, gamma=1.0)
    if alpha == 1.0:
        theta = theta_star_queue(dist, service, a)
        tau = math.expm1(theta)
        integral = rule.checked(dist, tau, rule.integrals(dist, tau))[0]
        return DecayRate(rate=theta * a - integral, gamma=1.0)
    # linear tilt: sup_t {t a - int CGF(t sf(x)) dx}
    # the root search takes finite limits; every tilt asked for here lies below 50
    sup = dist.mgf_domain_sup
    cap = 50.0 if math.isinf(sup) else sup - 1e-9 * max(1.0, sup)

    def level(t):
        _, slope, curvature = rule.integrals(dist, t)
        return slope - a, curvature

    theta = find_root_increasing(level, Interval(0.0, min(1.0, cap)), lo_limit=0.0, hi_limit=cap,
                                 tol=1e-12)
    integral = rule.checked(dist, theta, rule.integrals(dist, theta))[0]
    return DecayRate(rate=theta * a - integral, gamma=alpha)


class TestLogAsymQ:
    def test_fast_dispatch(self):
        service = ExpService(0.5)
        decay = log_asym_Q(POIS2, service, 2.0, 1.5)
        load = mean_load(POIS2, service)
        assert decay.rate == pytest.approx(rate_function(PoissonRate(load), 1.5).value, rel=1e-12)
        assert decay.gamma == 1.0

    def test_balanced_flat_service_is_compound(self):
        # the Gauss rule of DetService(1.0) against the one-node unit rule
        decay = log_asym_Q(Exponential(2.5), DetService(1.0), 1.0, 1.0)
        assert decay.rate == pytest.approx(log_asym_P(Exponential(2.5), 1.0, 1.0).rate, abs=1e-10)

    def test_slow_matches_closed_form(self):
        # exp:2.5 rates and exp:0.5 service: the objective theta a - int_0^1
        # -log(1 - theta e^(-x/E)/lam) dx is theta a - E [Li2(theta/lam) -
        # Li2(theta e^(-1/E)/lam)]; mpmath at 40 digits puts its supremum
        # at theta = 2.484976437267654 with value 1.750601849089648641910
        lam, E, a = 2.5, 0.5, 1.0
        supremum = 1.750601849089648641910

        def dilog(z):
            if z > 0.5:
                return math.pi**2 / 6.0 - math.log(z) * math.log1p(-z) - dilog(1.0 - z)
            return math.fsum(z**k / k**2 for k in range(1, 60))

        def objective(theta):
            return theta * a - E * (dilog(theta / lam) - dilog(theta * math.exp(-1.0 / E) / lam))

        def slope(theta):
            return a - E / theta * (math.log1p(-theta * math.exp(-1.0 / E) / lam)
                                    - math.log1p(-theta / lam))

        lo, hi = 1e-9, lam * (1.0 - 1e-15)  # the objective is concave on (0, lam)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
        assert lo == pytest.approx(2.484976437267654, abs=1e-12)
        assert objective(lo) == pytest.approx(supremum, abs=1e-12)

        decay = log_asym_Q(Exponential(lam), ExpService(E), 0.5, a)
        assert decay.rate == pytest.approx(supremum, abs=1e-12)
        assert decay.gamma == 0.5

    def test_rarity(self):
        with pytest.raises(RarityError):
            log_asym_Q(POIS2, ExpService(0.5), 0.5, 0.2)


class TestLoadVariance:
    def test_no_overdispersion_without_mixing(self):
        lv = load_and_variance(DeterministicRate(2.0), ExpService(0.5), 100)
        assert lv.var_overdispersion == 0.0
        assert lv.var_total == lv.var_poisson

    def test_poisson_rate_decomposition(self):
        for service, sq in ((ExpService(0.5), 0.25), (DetService(0.5), 0.5), (Pareto2Service(0.5), 1.0 / 6.0)):
            lv = load_and_variance(POIS2, service, 100)
            assert lv.var_poisson == pytest.approx(100.0, rel=1e-12)
            assert lv.var_overdispersion == pytest.approx(100.0 * 2.0 * sq, rel=1e-12)
        ranks = {
            type(s).__name__: load_and_variance(POIS2, s, 100).var_overdispersion
            for s in (DetService(0.5), ExpService(0.5), Pareto2Service(0.5))
        }
        assert ranks["DetService"] > ranks["ExpService"] > ranks["Pareto2Service"]

    def test_transient_and_stationary_means(self):
        lv = load_and_variance(POIS2, ExpService(0.5), 100)
        assert lv.M1 == pytest.approx(100.0 * (1.0 - math.exp(-2.0)), rel=1e-12)
        assert math.ceil(lv.M1) == 87
        assert lv.M_inf == pytest.approx(100.0, rel=1e-12)
        # stationary mean depends on the service law only through its mean
        for service in SERVICES:
            assert load_and_variance(POIS2, service, 100).M_inf == pytest.approx(100.0)

    @pytest.mark.parametrize("N", [100.0, 2.5, 0])
    def test_non_integer_or_nonpositive_N_rejected(self, N):
        with pytest.raises(DomainError, match="N must be a positive integer"):
            load_and_variance(POIS2, ExpService(0.5), N)

    @pytest.mark.parametrize("N", [1, 7, 100, 1000])
    def test_transient_mean_is_the_summed_retention(self, N):
        # sum_i omega_i telescopes to N * int_0^1 sf, so M1 needs no loop over slots
        for service in SERVICES:
            lv = load_and_variance(POIS2, service, N)
            assert lv.M1 == pytest.approx(2.0 * omega_vector(N, service).sum(), rel=1e-13)
