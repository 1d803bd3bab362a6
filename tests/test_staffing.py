import math
import warnings

import pytest

from mixpois import queue
from mixpois.errors import DomainError, HypothesisWarning, MgfDomainError, RarityError
from mixpois.numerics import find_root_increasing
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
# the Table grid at N = 100: three rate laws, three service laws at three
# means, two targets; the staff-tables benchmark grid is its rows at mean 0.5
GRID_ROWS = [(rate, f"{kind}:{E:g}", eps) for rate in ("pois:2", "twopoint:0.75,1,5", "exp:0.5")
             for kind in ("exp", "det", "pareto") for E in (0.05, 0.5, 1.0)
             for eps in (1e-3, 1e-4)]
BENCH_ROWS = [row for row in GRID_ROWS if row[1].endswith(":0.5")]
# exponential rates near the level their MGF domain reaches (15.54 at
# pareto:0.5 service): (service, N, level) of rows whose target is Q at a
# level just below an upper server count whose predicted tilt lies past the
# MGF wall
WALL_ROWS = {"straddling-the-wall": ("pareto:0.5", 2, 13.02),
             "wholly-past-the-wall": ("exp:0.05", 1, 2.64)}


def _wall_eps(service, N, level):
    return queue_approx(Exponential(0.5), parse_service(service), N, level).Q_check


def _main_rule_evaluations(rule_calls, rate, service, eps):
    """Main-rule evaluations of one solve_staffing call, after checking that
    it checks the integrals at each of its three roots once, where its rule
    has a check rule (deterministic service has none), and evaluates no tilt
    twice."""
    service = parse_service(service)
    check = queue._rule(service).check
    checks = 0 if check is None else 3
    rule_calls.clear()
    solve_staffing(parse_rate(rate), service, 100, eps)
    rules = [rule for rule, _ in rule_calls]
    assert rules.count(check) == checks
    assert len(set(rule_calls)) == len(rule_calls)
    return len(rules) - checks


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
            solve_staffing(POIS2, ExpService(0.5), 0, 1e-3)
        for N, eps in ((math.inf, 1e-3), (100, math.nan), (100, math.inf)):
            with pytest.raises(DomainError):
                solve_staffing(POIS2, ExpService(0.5), N, eps)

    @pytest.mark.parametrize("dist,service,N,eps", [
        (dist, service, 100, eps) for dist, service in (
            (Exponential(2.5), ExpService(0.5)),
            (GammaRate(2.0, 1.5), Pareto2Service(0.5)),
            (POIS2, DetService(0.5)),
            (TwoPoint(0.75, 1.0, 5.0), ExpService(0.05)),
            (DeterministicRate(2.0), Pareto2Service(1.0)),
        ) for eps in (1e-3, 1e-9, 1e-12)
    ] + [
        # an absolute band of 1e-9 left this level 0.25% above its converged 36.6683
        (PoissonRate(19.0963), ExpService(1.02301), 2, 2.85e-9),
    ], ids=lambda v: spec_label(v) if hasattr(v, "kind") else None)
    def test_level_round_trip(self, dist, service, N, eps):
        # the level returned meets the termination band, relative to eps,
        # when fed back
        r = solve_staffing(dist, service, N, eps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisWarning)
            assert abs(queue_approx(dist, service, N, r.a_eps).Q_check / eps - 1.0) < 1e-6

    @pytest.mark.parametrize("law", [PoissonRate, DeterministicRate], ids=lambda law: law.__name__)
    @pytest.mark.parametrize("service", [ExpService(0.5), DetService(0.5), Pareto2Service(0.5)],
                             ids=spec_label)
    def test_rate_scaling_twins(self, law, service):
        # rates c lam and N / c slots keep N a, the server counts and Q at
        # them: below a = 1 the server-count Newton steps stop at a level gap
        # relative to a; an absolute gap moved log Q by up to 0.5% at c = 1e-200
        def result(c):
            r = solve_staffing(law(2.0 * c), service, round(100 / c), 1e-3)
            return ((r.servers_floor, r.servers_ceil),
                    [r.a_eps / c, math.log(r.Q_at_floor), math.log(r.Q_at_ceil), r.M1, r.M_inf])

        counts, expected = result(1.0)
        for c in (1e-6, 1e-13, 1e-100, 1e-200):
            twin_counts, values = result(c)
            assert twin_counts == counts
            assert values == pytest.approx(expected, rel=1e-12, abs=0.0), c

    @pytest.mark.parametrize("rate,service,eps", BENCH_ROWS)
    def test_quadrature_calls_per_solve(self, rule_calls, rate, service, eps):
        # the staffing tilt search from the central-limit bracket and the two
        # server-count Newton solves evaluate the main rule at most 13 times
        assert _main_rule_evaluations(rule_calls, rate, service, eps) <= 13

    def test_quadrature_calls_on_the_table_grid(self, rule_calls):
        # at most 17 on any row of the grid, and 11 on average over the
        # benchmark rows
        counts = {row: _main_rule_evaluations(rule_calls, *row) for row in GRID_ROWS}
        assert max(counts.values()) <= 17
        assert sum(counts[row] for row in BENCH_ROWS) <= 11 * len(BENCH_ROWS)

    @pytest.mark.parametrize("rate,N,eps", [("gamma:1e305,1", 100, 1e-3),
                                            ("gamma:3.4676934119325283e+50,1", 1, 0.5)])
    def test_rarity_boundary_named_where_met(self, rule_calls, rate, N, eps):
        # the level at eps lies at the rule's rounding error above the mean
        # load, where log Q is noise.  The search names the boundary at the
        # first tilt whose level lies below it with Q at most eps; it bisected
        # to adjacent floats of log theta first, in 64 and 49 main-rule
        # evaluations
        with pytest.raises(RarityError, match="met already at the rarity boundary"):
            solve_staffing(parse_rate(rate), ExpService(1.0), N, eps)
        assert len(rule_calls) <= 17

    @pytest.mark.parametrize("rate,service,N,eps", [
        pytest.param(rate, service, 100, eps, id=f"{rate}-{service}-{eps}")
        for rate, service, eps in BENCH_ROWS
    ] + [pytest.param("exp:0.5", service, N, _wall_eps(service, N, level), id=name)
         for name, (service, N, level) in WALL_ROWS.items()])
    def test_server_counts_match_cold_solves(self, rate, service, N, eps):
        # the warm-started server-count solves agree with queue_approx, which
        # searches each tilt from the cold bracket, also where sigma^2 is 7e7
        # at the MGF wall: each level solve stops on the same residual
        dist, service = parse_rate(rate), parse_service(service)
        r = solve_staffing(dist, service, N, eps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisWarning)
            for servers, Q in ((r.servers_floor, r.Q_at_floor), (r.servers_ceil, r.Q_at_ceil)):
                assert Q == pytest.approx(
                    queue_approx(dist, service, N, servers / N).Q_check, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("service,N,level", WALL_ROWS.values(), ids=WALL_ROWS.keys())
    def test_server_count_prediction_past_the_wall(self, monkeypatch, service, N, level):
        # the Newton steps for the upper server count start past the MGF wall
        # or stall below it, so its tilt is searched from the cold bracket,
        # as queue_approx searches it, to the same Q to the bit.  The root
        # finder bisects to adjacent floats where sigma^2 (7e7 at the upper
        # count of the first row) keeps |g| above its stop; a stop on a tilt
        # bracket 1e-12 wide left Q settled only to about 1e-5 there
        eps = _wall_eps(service, N, level)
        dist, service = Exponential(0.5), parse_service(service)
        searched = []

        def bracketed(*args, **kwargs):
            searched.append(find_root_increasing(*args, **kwargs))
            return searched[-1]

        monkeypatch.setattr(queue, "find_root_increasing", bracketed)
        r = solve_staffing(dist, service, N, eps)
        monkeypatch.undo()
        at_ceil = queue_approx(dist, service, N, r.servers_ceil / N)
        assert at_ceil.theta_star in searched
        at_eps = queue_approx(dist, service, N, r.a_eps)
        theta, sigma2 = at_eps.theta_star, at_eps.sigma2
        prediction = theta + 1.5 * (r.servers_ceil / N - r.a_eps) / sigma2 + 1e-9
        assert prediction > queue._tilt_cap_exp(dist)
        assert r.Q_at_ceil == at_ceil.Q_check

    def test_unreachable_server_count_same_error_as_cold(self):
        # the upper server count of this row lies beyond the level the MGF
        # domain reaches (15.54): its level solve raises what a cold
        # theta_star_queue raises, with the same message
        dist, service = Exponential(0.5), Pareto2Service(0.5)
        eps = queue_approx(dist, service, 1, 15.5).Q_check
        with pytest.raises(MgfDomainError) as cold:
            queue.theta_star_queue(dist, service, 16.0)
        with pytest.raises(MgfDomainError) as warm:
            solve_staffing(dist, service, 1, eps)
        assert str(warm.value) == str(cold.value)

    def test_unreachable_epsilon_names_the_mgf_bound(self):
        # no tilt below the MGF wall of these rates, at log 1.5, pushes the
        # approximation down to 1e-30: the staffing search itself stops there
        dist = Exponential(0.5)
        bound = f"{queue._tilt_cap_exp(dist):.6g}"
        assert bound == f"{math.log(1.5):.6g}"
        with pytest.raises(MgfDomainError, match=rf"confined to \(0, {bound}\] by the MGF domain"):
            solve_staffing(dist, Pareto2Service(0.5), 1, 1e-30)

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
