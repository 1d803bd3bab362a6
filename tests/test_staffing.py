import math
import warnings

import pytest

from mixpois import queue
from mixpois.errors import DomainError, HypothesisWarning, MgfDomainError
from mixpois.queue import DetService, ExpService, Pareto2Service, mc_Q, parse_service, queue_approx
from mixpois.rates import (
    DeterministicRate,
    Exponential,
    GammaRate,
    PoissonRate,
    TwoPoint,
    parse_rate,
    spec_label,
)
from mixpois.staffing import solve_staffing

POIS2 = PoissonRate(2.0)
# the staff-tables benchmark grid: N = 100 and service mean 0.5 throughout
BENCH_ROWS = [(rate, f"{kind}:0.5", eps) for rate in ("pois:2", "twopoint:0.75,1,5", "exp:0.5")
              for kind in ("exp", "det", "pareto") for eps in (1e-3, 1e-4)]


class TestSolveStaffing:
    def test_reference_row(self):
        r = solve_staffing(POIS2, ExpService(0.5), 100, 1e-3)
        assert r.a_eps == pytest.approx(1.2602, abs=2e-4)
        assert r.servers_ceil == 127
        assert r.servers_floor == 126
        assert math.ceil(r.M1) == 87
        assert r.M_inf == pytest.approx(100.0)

    def test_bracket_validity(self):
        r = solve_staffing(POIS2, ExpService(0.5), 100, 1e-3)
        assert r.Q_at_ceil <= r.epsilon <= r.Q_at_floor

    def test_deterministic_service_row(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = solve_staffing(POIS2, DetService(1.0), 100, 1e-3)
        assert r.a_eps == pytest.approx(2.6636, abs=2e-4)
        assert r.servers_ceil == 267

    def test_monotone_in_epsilon(self):
        a3 = solve_staffing(POIS2, ExpService(0.5), 100, 1e-3).a_eps
        a4 = solve_staffing(POIS2, ExpService(0.5), 100, 1e-4).a_eps
        assert a4 > a3

    def test_monotone_in_service_mean(self):
        levels = [
            solve_staffing(POIS2, ExpService(E), 100, 1e-3).a_eps for E in (0.05, 0.5, 1.0)
        ]
        assert levels == sorted(levels)

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_staffing(POIS2, ExpService(0.5), 100, 0.0)
        with pytest.raises(DomainError):
            solve_staffing(POIS2, ExpService(0.5), 100, 1e-3, tol=-1.0)
        with pytest.raises(DomainError):
            solve_staffing(POIS2, ExpService(0.5), 0, 1e-3)
        for N, eps in ((math.inf, 1e-3), (100, math.nan), (100, math.inf)):
            with pytest.raises(DomainError):
                solve_staffing(POIS2, ExpService(0.5), N, eps)

    @pytest.mark.parametrize("dist,service", [
        (Exponential(2.5), ExpService(0.5)),
        (GammaRate(2.0, 1.5), Pareto2Service(0.5)),
        (POIS2, DetService(0.5)),
        (TwoPoint(0.75, 1.0, 5.0), ExpService(0.05)),
        (DeterministicRate(2.0), Pareto2Service(1.0)),
    ], ids=spec_label)
    def test_level_round_trip(self, dist, service):
        # the level returned meets the termination band when fed back
        eps, tol = 1e-3, 1e-9
        r = solve_staffing(dist, service, 100, eps, tol=tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisWarning)
            assert abs(queue_approx(dist, service, 100.0, r.a_eps).Q_check - eps) < tol

    @pytest.mark.parametrize("rate,service,eps", BENCH_ROWS)
    def test_quadrature_calls_per_solve(self, rule_calls, rate, service, eps):
        # the staffing tilt search and the two warm-started server-count
        # solves evaluate the main rule at most 18 times, never twice at one
        # tilt, and check the integrals each finds at its root once
        service = parse_service(service)
        check = queue._rule(service).check
        solve_staffing(parse_rate(rate), service, 100, eps)
        rules = [rule for rule, _ in rule_calls]
        assert rules.count(check) == 3
        assert len(rules) - 3 <= 18
        assert len(set(rule_calls)) == len(rule_calls)

    @pytest.mark.parametrize("rate,service,eps", BENCH_ROWS)
    def test_server_counts_match_cold_solves(self, rate, service, eps):
        # the warm-started server-count solves agree with queue_approx, which
        # searches each tilt from the cold bracket
        dist, service = parse_rate(rate), parse_service(service)
        r = solve_staffing(dist, service, 100, eps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisWarning)
            for servers, Q in ((r.servers_floor, r.Q_at_floor), (r.servers_ceil, r.Q_at_ceil)):
                assert Q == pytest.approx(
                    queue_approx(dist, service, 100, servers / 100).Q_check, rel=1e-10)

    @pytest.mark.parametrize("service,N,level", [
        (Pareto2Service(0.5), 2, 13.0),
        (ExpService(0.05), 1, 2.64),
    ], ids=["straddling-the-wall", "wholly-past-the-wall"])
    def test_server_count_prediction_past_the_wall(self, service, N, level):
        # exponential rates near the level the MGF domain reaches: the Newton
        # prediction for the upper server count lies past the wall, so its
        # bracket is clipped there, or replaced by the cold bracket where
        # nothing of it is left.  So close to the wall sigma^2 is large (7e7
        # at the upper count of the first case), and the root finder's 1e-12
        # bracket leaves Q settled only to about 1e-5, where the warm and the
        # cold search stop at different points
        dist = Exponential(0.5)
        eps = queue_approx(dist, service, N, level).Q_check
        r = solve_staffing(dist, service, N, eps, eps * 1e-3)
        at_eps = queue_approx(dist, service, N, r.a_eps)
        theta, sigma2 = at_eps.theta_star, at_eps.sigma2
        prediction = theta + 1.5 * (r.servers_ceil / N - r.a_eps) / sigma2 + 1e-9
        assert prediction > queue._tilt_cap_exp(dist)
        for servers, Q in ((r.servers_floor, r.Q_at_floor), (r.servers_ceil, r.Q_at_ceil)):
            assert Q == pytest.approx(queue_approx(dist, service, N, servers / N).Q_check,
                                      rel=1e-4)

    def test_unreachable_server_count_same_error_as_cold(self):
        # the upper server count of this row lies beyond the level the MGF
        # domain reaches (15.54): the clipped warm search raises what a cold
        # theta_star_queue raises, with the same message
        dist, service = Exponential(0.5), Pareto2Service(0.5)
        eps = queue_approx(dist, service, 1, 15.5).Q_check
        with pytest.raises(MgfDomainError) as cold:
            queue.theta_star_queue(dist, service, 16.0)
        with pytest.raises(MgfDomainError) as warm:
            solve_staffing(dist, service, 1, eps, eps * 1e-3)
        assert str(warm.value) == str(cold.value)

    def test_unreachable_epsilon_names_the_mgf_bound(self):
        # no tilt below the MGF wall of these rates, at log 1.5, pushes the
        # approximation down to 1e-30: the staffing search itself stops there
        dist = Exponential(0.5)
        bound = f"{queue._tilt_cap_exp(dist):.6g}"
        assert bound == f"{math.log(1.5):.6g}"
        with pytest.raises(MgfDomainError, match=rf"confined to \(0, {bound}\] by the MGF domain"):
            solve_staffing(dist, Pareto2Service(0.5), 1, 1e-30, 1e-40)

    def test_no_hypothesis_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", HypothesisWarning)
            solve_staffing(POIS2, DetService(0.5), 100, 1e-3)

    def test_mc_audit_at_solved_level(self):
        r = solve_staffing(POIS2, ExpService(0.5), 100, 1e-3)
        audit = mc_Q(POIS2, ExpService(0.5), 100, r.a_eps, 200_000, 0)
        assert audit.runs == 200_000
        # the audit should land in the right ballpark of the target
        assert 0.3 * r.epsilon < audit.estimate < 3.0 * r.epsilon
