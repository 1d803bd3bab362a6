import math
import warnings

import pytest

from mixpois import queue
from mixpois.errors import DomainError, HypothesisWarning
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
    def test_quadrature_calls_per_solve(self, monkeypatch, rate, service, eps):
        # the tilt search, the level check and the two server-count solves
        # together evaluate the occupancy integrals at most 30 times
        calls = []
        integrals = queue._integrals

        def counted(*args, **kwargs):
            calls.append(args)
            return integrals(*args, **kwargs)

        monkeypatch.setattr(queue, "_integrals", counted)
        solve_staffing(parse_rate(rate), parse_service(service), 100, eps)
        assert len(calls) <= 30

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
