import math
import warnings

import pytest

from mixpois.errors import DomainError, HypothesisWarning
from mixpois.queue import DetService, ExpService, Pareto2Service, queue_approx
from mixpois.rates import DeterministicRate, Exponential, GammaRate, PoissonRate, TwoPoint
from mixpois.staffing import solve_staffing, staffing_table

POIS2 = PoissonRate(2.0)


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
    ], ids=lambda x: x.label())
    def test_level_round_trip(self, dist, service):
        # the level returned meets the termination band when fed back
        eps, tol = 1e-3, 1e-9
        r = solve_staffing(dist, service, 100, eps, tol=tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisWarning)
            assert abs(queue_approx(dist, service, 100.0, r.a_eps).Q_check - eps) < tol

    def test_no_hypothesis_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", HypothesisWarning)
            solve_staffing(POIS2, DetService(0.5), 100, 1e-3)

    def test_verification_attached(self):
        r = solve_staffing(POIS2, ExpService(0.5), 100, 1e-3, verify_runs=200_000)
        assert r.verification is not None
        assert r.verification.runs == 200_000
        # the audit should land in the right ballpark of the target
        assert 0.3 * r.epsilon < r.verification.estimate < 3.0 * r.epsilon


class TestStaffingTable:
    def test_full_grid_shape(self):
        import warnings

        services = [ExpService(0.5), DetService(0.5), Pareto2Service(0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = staffing_table(POIS2, services, 100, [1e-3, 1e-4])
        assert len(rows) == 6
        assert all(row.error is None for row in rows)
        assert all(row.result.a_eps > 0 for row in rows)

    def test_error_rows_do_not_abort(self):
        # a target below the bisection band is rejected per row, others proceed
        rows = staffing_table(POIS2, [ExpService(0.5)], 100, [1e-12, 1e-1])
        assert rows[0].error is not None and "DomainError" in rows[0].error
        assert rows[1].error is None

    def test_mgf_exhaustion_row(self):
        # at N = 1 the approximation cannot reach 1e-12 within the MGF domain
        # of exponential rates
        rows = staffing_table(Exponential(2.5), [ExpService(0.5)], 1, [1e-12], tol=1e-14)
        assert rows[0].error is not None and "MgfDomainError" in rows[0].error

    def test_programming_errors_propagate(self, monkeypatch):
        # only package errors become row errors
        def broken(self, tau, sf=1.0, sf_complement=0.0):
            raise TypeError("broken integrand")

        monkeypatch.setattr(PoissonRate, "cgf", broken)
        with pytest.raises(TypeError, match="broken integrand"):
            staffing_table(POIS2, [ExpService(0.5)], 100, [1e-3])

    def test_empty_lists_rejected(self):
        with pytest.raises(DomainError):
            staffing_table(POIS2, [], 100, [1e-3])
        with pytest.raises(DomainError):
            staffing_table(POIS2, [ExpService(0.5)], 100, [])
