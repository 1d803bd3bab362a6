import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mixpois import queue
from mixpois.errors import (
    ConvergenceError,
    DomainError,
    HypothesisWarning,
    MgfDomainError,
    ParseError,
    RarityError,
)
from mixpois.numerics import Interval, QuadratureSpec, find_root_increasing, integrate
from mixpois.poisson_ldp import ceil_count, compound_z, poisson_rate
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
    spec_label,
)
from mixpois.sampling import Z_95
from mixpois.tail_asymptotics import DecayRate, approx_intermediate
from reference import poisson_tail

POIS2 = PoissonRate(2.0)
SERVICES = [ExpService(0.5), DetService(0.5), Pareto2Service(0.5)]


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
        spec = QuadratureSpec(breakpoints=service.breakpoints_in_unit)
        quad = integrate(service.sf, Interval(0.0, 1.0), spec)
        assert service.sf_integral(0.0, 1.0) == pytest.approx(quad, abs=1e-11)

    def test_sq_totals(self):
        assert ExpService(0.7).sf_sq_integral_total() == pytest.approx(0.35, abs=1e-12)
        assert DetService(0.7).sf_sq_integral_total() == pytest.approx(0.7, abs=1e-12)
        assert Pareto2Service(0.6).sf_sq_integral_total() == pytest.approx(0.2, abs=1e-12)

    def test_breakpoints(self):
        assert DetService(0.5).breakpoints_in_unit == (0.5,)
        assert DetService(1.0).breakpoints_in_unit == ()
        assert ExpService(0.5).breakpoints_in_unit == ()

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

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_level_rejected(self, a):
        with pytest.raises(DomainError, match="finite"):
            theta_star_queue(POIS2, ExpService(0.5), a)


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
            qa = queue_approx(POIS2, DetService(0.5), 100.0, 1.5)
        assert qa.hypothesis_violated
        assert not queue_approx(POIS2, ExpService(0.5), 100.0, 1.3).hypothesis_violated

    @pytest.mark.parametrize("service", [ExpService(0.5), Pareto2Service(0.5)])
    def test_sigma_matches_tilted_cgf_curvature(self, service):
        # finite-difference second derivative of the integrated CGF at the tilt
        a = 1.3
        qa = queue_approx(POIS2, service, 100.0, a)
        spec = QuadratureSpec(breakpoints=service.breakpoints_in_unit)

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
            _, slope, _ = queue._integrals(dist, service, tau, checked=True)
            assert slope == pytest.approx(exact, rel=1e-12), gap / lam

    @pytest.mark.parametrize("dist", RATE_LAWS, ids=spec_label)
    @pytest.mark.parametrize("service", [ExpService(0.5), DetService(0.5), Pareto2Service(0.05)],
                             ids=spec_label)
    def test_matches_adaptive_quadrature_away_from_the_wall(self, dist, service):
        theta = theta_star_queue(dist, service, 1.5 * mean_load(dist, service))
        tau = math.expm1(theta)
        if math.isfinite(dist.mgf_domain_sup):
            assert (dist.mgf_domain_sup - tau) / dist.mgf_domain_sup >= 0.1
        spec = QuadratureSpec(breakpoints=service.breakpoints_in_unit, abs_tol=1e-16,
                              rel_tol=1e-12)

        def reference(f):
            return integrate(lambda x: f(float(service.sf(x))), Interval(0.0, 1.0), spec)

        expected = (
            reference(lambda s: dist.cgf(tau * s)[0]),
            reference(lambda s: dist.cgf(tau * s)[1] * s),
            reference(lambda s: dist.cgf(tau * s)[2] * s * s),
        )
        got = queue._integrals(dist, service, tau, checked=True)
        for value, ref in zip(got, expected):
            assert value == pytest.approx(ref, rel=1e-10)

    def test_disagreeing_check_rule_raises(self, monkeypatch):
        service = ExpService(0.5)
        rule, _ = queue._rules(service)
        crude = queue._Rule(service, [0.0, 1.0], 2)
        monkeypatch.setattr(queue, "_rules", lambda s: (rule, crude))
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
            "assert queue._rules.cache_info().currsize == 0\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "queue.queue_approx(rates.PoissonRate(2.0), queue.ExpService(0.5), 100.0, 1.3)\n"
            "assert queue._rules.cache_info().currsize == 1\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestMcQ:
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


def log_asym_Q(dist, service, alpha, a):
    """The paper's decay rate of the occupancy tail for any alpha > 0."""
    queue._check_rare(dist, service, a)
    if alpha > 1.0:
        return DecayRate(rate=poisson_rate(a, mean_load(dist, service)).rate, gamma=1.0)
    if alpha == 1.0:
        theta = theta_star_queue(dist, service, a)
        integral = queue._integrals(dist, service, math.expm1(theta), checked=True)[0]
        return DecayRate(rate=theta * a - integral, gamma=1.0)
    # linear tilt: sup_t {t a - int CGF(t sf(x)) dx}
    sup = dist.mgf_domain_sup
    cap = math.inf if math.isinf(sup) else sup - 1e-9 * max(1.0, sup)
    theta = find_root_increasing(lambda t: queue._integrals(dist, service, t)[1] - a,
                                 Interval(0.0, min(1.0, cap)), tol=1e-12, lo_limit=0.0,
                                 hi_limit=cap)
    integral = queue._integrals(dist, service, theta, checked=True)[0]
    return DecayRate(rate=theta * a - integral, gamma=alpha)


class TestLogAsymQ:
    def test_fast_dispatch(self):
        service = ExpService(0.5)
        decay = log_asym_Q(POIS2, service, 2.0, 1.5)
        load = mean_load(POIS2, service)
        assert decay.rate == pytest.approx(poisson_rate(1.5, load).rate, rel=1e-12)
        assert decay.gamma == 1.0

    def test_balanced_flat_service_is_compound(self):
        decay = log_asym_Q(Exponential(2.5), DetService(1.0), 1.0, 1.0)
        assert decay.rate == pytest.approx(compound_z(Exponential(2.5), 1.0).rate, abs=1e-10)

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

    @pytest.mark.parametrize("N", [1, 7, 100, 1000])
    def test_transient_mean_is_the_summed_retention(self, N):
        # sum_i omega_i telescopes to N * int_0^1 sf, so M1 needs no loop over slots
        for service in SERVICES:
            lv = load_and_variance(POIS2, service, N)
            assert lv.M1 == pytest.approx(2.0 * omega_vector(N, service).sum(), rel=1e-13)
