"""Acceptance suite: ten end-to-end criteria with their stated tolerances.

Each criterion registers one status line, printed in the terminal summary.
Reference values are the tabulated dimensioning/audit numbers this artifact
is expected to reproduce.  One printed ratio pair of Table 2 is a misprint:
it contradicts its own tabulated staffing level.  Its reference is replaced
by the pair read off the table's own points on the same Q(a) curve, not by
anything this package computes; the printed pair is kept as
TABLE2_PRINTED_ERRATUM, and the evidence test shows that it fails the checks
every corrected row passes.
"""

import math
import warnings

import numpy as np
import pytest

from mixpois import gamma_exact, numerics, queue, sampling, staffing, tail_asymptotics
from mixpois.rates import DeterministicRate, Exponential, PoissonRate, TwoPoint, rate_function
from mixpois.sampling import Z_95
from reference import binomial_tails, efficiency_ratios, poisson_tail, relative_ci

SEED = 20250809

POIS2 = PoissonRate(2.0)
TWOPOINT = TwoPoint(0.75, 1.0, 5.0)
SERVICES = {
    "exp": queue.ExpService,
    "det": queue.DetService,
    "pareto": queue.Pareto2Service,
}

# tabulated reference values: (kind, E, eps) -> (a_eps, Q_floor/eps, Q_ceil/eps)
TABLE1 = {
    ("exp", 0.05, 1e-3): (0.2516, 1.1009, 0.6033),
    ("exp", 0.5, 1e-3): (1.2602, 1.0053, 0.7802),
    ("exp", 1.0, 1e-3): (1.7537, 1.0784, 0.8780),
    ("exp", 0.05, 1e-4): (0.2885, 1.7277, 0.9039),
    ("exp", 0.5, 1e-4): (1.3460, 1.1858, 0.8921),
    ("exp", 1.0, 1e-4): (1.8587, 1.2238, 0.9702),
    ("det", 0.05, 1e-3): (0.2782, 1.4983, 0.9133),
    ("det", 0.5, 1e-3): (1.4809, 1.0185, 0.8279),
    ("det", 1.0, 1e-3): (2.6636, 1.0565, 0.9070),
    ("det", 0.05, 1e-4): (0.3223, 1.1319, 0.6547),
    ("det", 0.5, 1e-4): (1.5857, 1.1407, 0.9036),
    ("det", 1.0, 1e-4): (2.8048, 1.0869, 0.9136),
    ("pareto", 0.05, 1e-3): (0.2350, 1.3845, 0.7229),
    ("pareto", 0.5, 1e-3): (1.0074, 1.2375, 0.9268),
    ("pareto", 1.0, 1e-3): (1.4250, 1.1252, 0.8894),
    ("pareto", 0.05, 1e-4): (0.2688, 1.8616, 0.9194),
    ("pareto", 0.5, 1e-4): (1.0818, 1.0613, 0.7633),
    ("pareto", 1.0, 1e-4): (1.5167, 1.1959, 0.9164),
}
TABLE2 = {
    ("exp", 0.05, 1e-3): (0.2662, 1.4061, 0.8115),
    ("exp", 0.5, 1e-3): (1.2991, 1.2266, 0.9787),
    ("exp", 1.0, 1e-3): (1.8061, 1.1182, 0.9307),
    ("exp", 0.05, 1e-4): (0.3056, 1.4107, 0.7615),
    ("exp", 0.5, 1e-4): (1.3942, 1.1124, 0.8601),
    ("exp", 1.0, 1e-4): (1.9234, 1.0742, 0.8717),
    ("det", 0.05, 1e-3): (0.3012, 1.0539, 0.6640),
    ("det", 0.5, 1e-3): (1.5438, 1.0708, 0.8934),
    ("det", 1.0, 1e-3): (2.7487, 1.1232, 0.9827),
    ("det", 0.05, 1e-4): (0.3484, 1.5388, 0.9209),
    ("det", 0.5, 1e-4): (1.6632, 1.0669, 0.8690),
    ("det", 1.0, 1e-4): (2.9094, 1.1532, 0.9905),
    ("pareto", 0.05, 1e-3): (0.2461, 1.4490, 0.7888),
    # printed as TABLE2_PRINTED_ERRATUM, which contradicts this row's own
    # level.  Corrected from tabulated numbers only: a quadratic in log Q
    # through (1.0381, 1e-3) and the (pareto, 0.5, 1e-4) row's points
    # (1.12, 1.0002e-4), (1.13, 0.7408e-4), read at a = 1.03 and 1.04
    # (_table_only_pair); see test_criterion_2_erratum_evidence
    ("pareto", 0.5, 1e-3): (1.0381, 1.2368, 0.9510),
    ("pareto", 1.0, 1e-3): (1.4671, 1.1606, 0.9393),
    ("pareto", 0.05, 1e-4): (0.2817, 1.1255, 0.5649),
    ("pareto", 0.5, 1e-4): (1.1200, 1.0002, 0.7408),
    ("pareto", 1.0, 1e-4): (1.5688, 1.2335, 0.9709),
}
ERRATUM_ROW = ("pareto", 0.5, 1e-3)
# the pair printed for ERRATUM_ROW, (Q_floor/eps, Q_ceil/eps)
TABLE2_PRINTED_ERRATUM = (1.2856, 0.7069)

A_TOL = 2e-4
PAIR_TOL = 0.02


def _solve_tables(dist, reference):
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind, E, eps in reference:
            results[(kind, E, eps)] = staffing.solve_staffing(
                dist, SERVICES[kind](E), 100, eps
            )
    return results


@pytest.fixture(scope="session")
def table1_results():
    return _solve_tables(POIS2, TABLE1)


@pytest.fixture(scope="session")
def table2_results():
    return _solve_tables(TWOPOINT, TABLE2)


def _table_deviations(results, reference):
    a_devs, pair_devs = {}, {}
    for key, (a_ref, qf_ref, qc_ref) in reference.items():
        r = results[key]
        a_devs[key] = abs(r.a_eps - a_ref)
        pair_devs[key] = max(
            abs(r.Q_at_floor / key[2] - qf_ref), abs(r.Q_at_ceil / key[2] - qc_ref)
        )
    return a_devs, pair_devs


def _servers_floor(a):
    """floor(100*a) for a level printed to four decimals, in integer
    arithmetic (100 * 1.12 is 112.00000000000001 in floating point)."""
    return round(a * 10_000) // 100


def _table_only_pair(table, key):
    """(Q_floor/eps, Q_ceil/eps) of one row, from tabulated numbers only.

    The two rows of a table that share a service lie on one curve Q(a).
    The row's own level gives the point (a_eps, eps); the sibling row at the
    other eps gives Q at its two bracketing server counts.  A quadratic in
    log Q through these three points is read at the row's own bracketing
    server counts, floor(100*a_eps) and floor(100*a_eps) + 1.
    """
    kind, E, eps = key
    sibling_eps = 1e-4 if eps == 1e-3 else 1e-3
    a_eps = table[key][0]
    a_sib, qf_sib, qc_sib = table[(kind, E, sibling_eps)]
    k_sib = _servers_floor(a_sib)
    coeffs = np.polyfit(
        [a_eps, k_sib / 100.0, (k_sib + 1) / 100.0],
        [math.log(eps), math.log(qf_sib * sibling_eps), math.log(qc_sib * sibling_eps)],
        2,
    )
    k = _servers_floor(a_eps)
    return tuple(math.exp(np.polyval(coeffs, (k + j) / 100.0)) / eps for j in (0, 1))


class TestCriterion1:
    def test_table1_reproduction(self, table1_results, acceptance_log):
        a_devs, pair_devs = _table_deviations(table1_results, TABLE1)
        acceptance_log(
            "criterion 1",
            "PASS" if max(a_devs.values()) <= A_TOL and max(pair_devs.values()) <= PAIR_TOL else "FAIL",
            f"18/18 rows; worst |a-ref| {max(a_devs.values()):.2e} (tol {A_TOL:.0e}), "
            f"worst pair dev {max(pair_devs.values()):.4f} (tol {PAIR_TOL})",
        )
        assert max(a_devs.values()) <= A_TOL
        assert max(pair_devs.values()) <= PAIR_TOL


TABLE_ROWS = [("table1", key) for key in TABLE1] + [("table2", key) for key in TABLE2]


@pytest.mark.parametrize("table,key", TABLE_ROWS,
                         ids=[f"{t}-{k[0]}-E{k[1]}-eps{k[2]:g}" for t, k in TABLE_ROWS])
def test_level_round_trip(request, table, key):
    # each solved level, fed back to queue_approx, meets solve_staffing's
    # termination band |Q / eps - 1| < 1e-6
    dist = POIS2 if table == "table1" else TWOPOINT
    kind, E, eps = key
    r = request.getfixturevalue(f"{table}_results")[key]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = queue.queue_approx(dist, SERVICES[kind](E), 100.0, r.a_eps).Q_check
    assert abs(q / eps - 1.0) < 1e-6


class TestCriterion2:
    def test_table2_levels(self, table2_results, acceptance_log):
        a_devs, pair_devs = _table_deviations(table2_results, TABLE2)
        bad = {k: v for k, v in pair_devs.items() if v > PAIR_TOL}
        status = "PASS" if not bad and max(a_devs.values()) <= A_TOL else "FAIL"
        acceptance_log(
            "criterion 2",
            status,
            f"levels 18/18 within {max(a_devs.values()):.2e}; ratio pairs "
            f"{18 - len(bad)}/18 within {PAIR_TOL} "
            + (f"(mismatch at {sorted(bad)} - tabulated pair contradicts its own "
               f"level; see the erratum evidence test and notes)" if bad else ""),
        )
        assert max(a_devs.values()) <= A_TOL

    @pytest.mark.parametrize(
        "key", sorted(TABLE2), ids=lambda k: f"{k[0]}-E{k[1]}-eps{k[2]:g}"
    )
    def test_table2_ratio_pairs(self, table2_results, key):
        # Faithful per-row check of the tabulated ratio pairs.  The printed
        # pair of the (pareto, 0.5, 1e-3) row contradicts its own tabulated
        # level (it probably belongs to a different scenario), so its
        # reference was corrected from the table's own numbers; see the
        # evidence test below.
        _, qf_ref, qc_ref = TABLE2[key]
        r = table2_results[key]
        eps = key[2]
        assert r.Q_at_floor / eps == pytest.approx(qf_ref, abs=PAIR_TOL)
        assert r.Q_at_ceil / eps == pytest.approx(qc_ref, abs=PAIR_TOL)

    def test_criterion_2_erratum_evidence(self, table2_results):
        """The printed pair of the erratum row fails two checks on tabulated
        numbers that every reference row, the corrected one included, passes.

        Slope: near the solved level, log Q moves at slope -N*theta* per unit
        of a, so the tabulated (a_eps, pair) must satisfy
        log(pair_ceil) = -N*theta*(a_ceil - a_eps) up to second order.  The
        printed ceiling violates that by more than 0.2 in log, while our
        computed pair satisfies it to about 1e-3.

        Curve: _table_only_pair reproduces all 36 reference pairs of Tables 1
        and 2 within 0.01, but misses the printed pair by more than 0.04
        (floor) and 0.2 (ceiling).  Used as the sibling, the printed pair
        also makes the (pareto, 0.5, 1e-4) row miss by more than 0.2.
        """
        kind, E, eps = ERRATUM_ROW
        a_ref = TABLE2[ERRATUM_ROW][0]
        qf_printed, qc_printed = TABLE2_PRINTED_ERRATUM
        r = table2_results[ERRATUM_ROW]
        theta = queue.theta_star_queue(TWOPOINT, SERVICES[kind](E), a_ref)
        predicted = -100.0 * theta * (r.servers_ceil / 100.0 - a_ref)
        assert abs(math.log(r.Q_at_ceil / eps) - predicted) < 5e-3
        assert abs(math.log(qc_printed) - predicted) > 0.2
        for key, (a_tab, _, qc_tab) in TABLE2.items():
            theta = queue.theta_star_queue(TWOPOINT, SERVICES[key[0]](key[1]), a_tab)
            ceil_a = (_servers_floor(a_tab) + 1) / 100.0
            predicted = -100.0 * theta * (ceil_a - a_tab)
            assert abs(math.log(qc_tab) - predicted) < 0.05, key

        for table in (TABLE1, TABLE2):
            for key, (_, qf_tab, qc_tab) in table.items():
                qf, qc = _table_only_pair(table, key)
                assert abs(qf - qf_tab) < 0.01, key
                assert abs(qc - qc_tab) < 0.01, key
        qf, qc = _table_only_pair(TABLE2, ERRATUM_ROW)
        assert abs(qf - qf_printed) > 0.04
        assert abs(qc - qc_printed) > 0.2
        printed = {**TABLE2, ERRATUM_ROW: (a_ref, qf_printed, qc_printed)}
        sibling = (kind, E, 1e-4)
        _, qc = _table_only_pair(printed, sibling)
        assert abs(qc - TABLE2[sibling][2]) > 0.2


class TestCriterion3:
    @pytest.mark.parametrize(
        "dist,a_ref,audit_ref",
        [
            (POIS2, 1.2602, 0.7215),
            (TWOPOINT, 1.2991, 0.9002),
        ],
        ids=["poisson-rates", "twopoint-rates"],
    )
    def test_mc_audit_at_desk_scale(self, dist, a_ref, audit_ref, acceptance_log):
        eps = 1e-3
        runs = 10**7
        result = queue.mc_Q(dist, queue.ExpService(0.5), 100, a_ref, runs, SEED)
        q_over_eps = result.estimate / eps
        desk_se = result.ci_halfwidth_95 / Z_95 / eps
        dev = abs(q_over_eps - audit_ref)
        acceptance_log(
            f"criterion 3 ({dist.label()})",
            "PASS" if dev <= 4.0 * desk_se else "FAIL",
            f"audit {q_over_eps:.4f} vs reference {audit_ref} "
            f"({dev / desk_se:.2f} desk SE, 1e7 runs)",
        )
        assert dev <= 4.0 * desk_se


class TestCriterion4:
    def test_ratio_trends(self, acceptance_log):
        def deviations(alpha, grid):
            out = []
            for N in grid:
                case = gamma_exact.GammaCase(beta=1.0, lam=2.5, alpha=alpha, a=1.0, N=N)
                if alpha > 1.0:
                    approx = gamma_exact.p_asym_fast(case)
                else:
                    approx = gamma_exact.p_asym_slow(case)
                out.append(abs(math.exp(approx.log_value - gamma_exact.log_p_exact(case)) - 1.0))
            return out

        fast = deviations(5.0, [5.0, 10.0, 20.0, 40.0])
        slow = deviations(0.2, [20.0, 40.0, 80.0, 160.0])
        ok = (
            fast == sorted(fast, reverse=True)
            and slow == sorted(slow, reverse=True)
            and fast[-1] < 0.1
            and slow[-1] < 0.1
        )
        acceptance_log(
            "criterion 4",
            "PASS" if ok else "FAIL",
            f"|ratio-1| decreasing on both grids; final fast {fast[-1]:.4f}, "
            f"final slow {slow[-1]:.4f} (tol 0.1)",
        )
        assert fast == sorted(fast, reverse=True)
        assert slow == sorted(slow, reverse=True)
        assert fast[-1] < 0.1
        assert slow[-1] < 0.1


def _exact_P(lam, alpha, a, N):
    return gamma_exact.P_exact(gamma_exact.GammaCase(1.0, lam, alpha, a, N))


def _compare_grid(dist, lam, alpha, a, grid, is_method, runs=10**6):
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for N in grid:
            if is_method == "is-fast":
                is_res = sampling.is_fast(dist, alpha, a, N, runs, SEED)
            else:
                is_res = sampling.is_slow(dist, alpha, a, N, runs, SEED)
            mc_res = sampling.mc_P(dist, alpha, a, N, runs, SEED + 1)
            rows.append((N, _exact_P(lam, alpha, a, N), is_res, mc_res))
    return rows


def _exact_z_scores(rows, runs):
    """z-scores against the exact tail: each IS estimate over its reported
    standard error, and each MC estimate with at least 100 hits over the
    binomial standard error sqrt(P (1 - P) / runs) of the exact P."""
    is_z = [(is_res.estimate - exact) / (is_res.ci_halfwidth_95 / Z_95)
            for _, exact, is_res, _ in rows]
    mc_z = [(mc_res.estimate - exact) / math.sqrt(exact * (1.0 - exact) / runs)
            for _, exact, _, mc_res in rows if mc_res.estimate * runs >= 100]
    return is_z, mc_z


# the one-sided normal tail beyond 4 SE
_TAIL_4SE = 0.5 * math.erfc(4.0 / math.sqrt(2.0))


def _check_regime(rows, runs):
    span = rows[0][1] / rows[-1][1]
    assert span >= 1e4, f"grid spans only {span:.1f}x"

    is_z, mc_z = _exact_z_scores(rows, runs)
    for (N, *_), z in zip(rows, is_z):
        assert abs(z) <= 4.0, f"IS at N={N}: z = {z:.2f} against the exact tail"
    for (N, *_), z in zip(rows, mc_z):
        assert abs(z) <= 4.0, f"MC at N={N}: z = {z:.2f} against the exact tail"
    assert mc_z
    # every crude cell's hit count, none included, lies inside both 4-SE
    # tails of the exact Bin(runs, P)
    tails = []
    for N, exact, _, mc_res in rows:
        hits = round(mc_res.estimate * runs)
        tails.append(min(binomial_tails(runs, exact, hits)))
        assert tails[-1] >= _TAIL_4SE, f"MC at N={N}: {hits} hits, tail {tails[-1]:.3g}"

    is_growth = relative_ci(rows[-1][2]) / relative_ci(rows[0][2])
    # the growth of the crude relative CI over the grid: sampled up to the
    # last cell with hits, which depends on the seed, and exact,
    # sqrt((1 - P) / (runs P)) from the first cell to the last
    mc_with_hits = [r for r in rows if r[3].estimate > 0.0]
    mc_growth = relative_ci(mc_with_hits[-1][3]) / relative_ci(rows[0][3])
    (_, first, *_), (_, last, *_) = rows[0], rows[-1]
    exact_mc_growth = math.sqrt(first * (1.0 - last) / (last * (1.0 - first)))
    assert exact_mc_growth >= 10.0, f"MC relative CI grows only {exact_mc_growth:.2f}x"
    return (span, max(map(abs, is_z + mc_z)), len(mc_z), min(tails), is_growth, mc_growth,
            exact_mc_growth)


def _is_slow_log_second_moment(lam, alpha, a, N):
    """log E[w^2] per run of is_slow on exponential(lam) slot rates, in
    closed form at the package's tilt theta.

    The pooled rate X ~ Gamma(n, lam), n = N^alpha, is drawn at rate
    lam - theta and weighted by L = (lam / (lam - theta))^n exp(-theta X) on
    the event, so E[L^2 1] under the twist is E[L 1] = (lam / (lam - theta))^n
    (lam / (lam + theta))^n times the same tail at rate lam + theta: the
    oracle tail, since N a is an integer on the grid.
    """
    theta = rate_function(Exponential(lam), a).theta_star
    n = N**alpha
    return (n * math.log(lam / (lam - theta)) + n * math.log(lam / (lam + theta))
            + math.log(_oracle_tail(1.0, lam + theta, alpha, a, N)))


class TestCriterion5:
    def test_fast_regime(self, acceptance_log):
        grid = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        rows = _compare_grid(Exponential(1.0), 1.0, 2.0, 2.0, grid, "is-fast")
        span, worst, mc_checked, tail, is_growth, mc_growth, exact_mc_growth = _check_regime(
            rows, 10**6)
        ratios = efficiency_ratios(
            lambda N: sampling.is_fast(Exponential(1.0), 2.0, 2.0, N, 10**6, SEED,
                                      quantity="point"),
            grid,
        )
        passed = ratios[-1] >= 0.9 and is_growth <= 3.0
        acceptance_log(
            "criterion 5 (fast)",
            "PASS" if passed else "FAIL",
            f"span {span:.1e}x, {len(rows)} IS and {mc_checked} MC estimates within 4 SE of "
            f"exact (max |z| {worst:.2f}), {len(rows)} MC hit counts inside the exact "
            f"binomial's 4-SE tails (min tail {tail:.2g}), IS CI x{is_growth:.2f} (<=3), "
            f"MC CI x{mc_growth:.0f} (exact x{exact_mc_growth:.0f}, >=10), "
            f"diagnostic ratio {ratios[-1]:.4f} (>=0.9)",
        )
        assert is_growth <= 3.0, f"IS relative CI grew {is_growth:.2f}x"
        assert passed

    def test_slow_regime(self, acceptance_log):
        grid = [8.0, 16.0, 25.0, 36.0, 49.0]
        rows = _compare_grid(Exponential(2.5), 2.5, 0.5, 2.0, grid, "is-slow")
        span, worst, mc_checked, tail, is_growth, mc_growth, exact_mc_growth = _check_regime(
            rows, 10**6)
        # the sampled second moment at N = 49 has a relative SE of about 4
        # at 1e6 runs (E[w^4] / E[w^2]^2 = 1.8e7), so the growth reads
        # against the closed form: the exact efficiency ratio
        # log E[w^2] / log P^2 rises along the grid, the logarithmic
        # efficiency of the slow-regime sampler
        log_m2 = [_is_slow_log_second_moment(2.5, 0.5, 2.0, N) for N, *_ in rows]
        exact_ratios = [m2 / (2.0 * math.log(exact)) for m2, (_, exact, *_) in zip(log_m2, rows)]
        exact_growth = math.sqrt(
            (math.exp(log_m2[-1]) / rows[-1][1] ** 2 - 1.0)
            / (math.exp(log_m2[0]) / rows[0][1] ** 2 - 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ratios = efficiency_ratios(
                lambda N: sampling.is_slow(Exponential(2.5), 0.5, 2.0, N, 10**6, SEED),
                [49.0, 100.0, 225.0, 400.0, 900.0],
            )
        rising = exact_ratios == sorted(exact_ratios) and ratios == sorted(ratios)
        passed = ratios[-1] >= 0.9
        acceptance_log(
            "criterion 5 (slow)",
            "PASS" if passed and rising else "FAIL",
            f"span {span:.1e}x, {len(rows)} IS and {mc_checked} MC estimates within 4 SE of "
            f"exact (max |z| {worst:.2f}), {len(rows)} MC hit counts inside the exact "
            f"binomial's 4-SE tails (min tail {tail:.2g}), IS CI x{is_growth:.2f} "
            f"(exact x{exact_growth:.2f}; exact efficiency ratio {exact_ratios[0]:.3f} -> "
            f"{exact_ratios[-1]:.3f}, rising), MC CI x{mc_growth:.0f} "
            f"(exact x{exact_mc_growth:.0f}, >=10), diagnostic ratio {ratios[-1]:.4f} (>=0.9)",
        )
        assert exact_ratios == sorted(exact_ratios)
        assert ratios == sorted(ratios)
        assert passed


# composite Gauss-Legendre rule on [0, 1] for the oracle's integrals
_ORACLE_NODES, _ORACLE_WEIGHTS = numerics.gauss_legendre(np.linspace(0.0, 1.0, 33), 20)


def _mixed_pmf_quadrature(r, lam, scale, ks):
    """Mixed-Poisson pmf terms at the counts ``ks`` by quadrature of the
    pooled-rate density against the Poisson pmf; independent of the closed
    negative-binomial route (it never forms a binomial coefficient).

    With c = r + k, rate = lam + scale and the pooled rate s = (c / rate) e^x,
    a term is exp(const + c log(c / rate) - c) times the integral over the
    real line of exp(c (x + 1 - e^x)), which peaks at x = 0 with height 1;
    the rule covers the range where that integrand exceeds about e^-45.
    """
    ks = np.asarray(ks, dtype=np.float64)
    c = r + ks
    rate = lam + scale
    lo = -(45.0 / c + 10.0 / np.sqrt(c))
    hi = np.log1p(45.0 / c) + 10.0 / np.sqrt(c)
    x = lo[:, None] + (hi - lo)[:, None] * _ORACLE_NODES
    integral = (hi - lo) * (np.exp(c[:, None] * (x - np.expm1(x))) @ _ORACLE_WEIGHTS)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in ks])
    const = r * math.log(lam) - math.lgamma(r) + ks * math.log(scale) - log_factorial
    return np.exp(const + c * np.log(c / rate) - c) * integral


def _oracle_point(beta, lam, alpha, a, N):
    r = math.exp(alpha * math.log(N)) * beta
    return float(_mixed_pmf_quadrature(r, lam, N ** (1.0 - alpha), [round(N * a)])[0])


def _oracle_tail(beta, lam, alpha, a, N):
    """The pmf terms summed upward from k0 = N a, in blocks of 64 counts,
    until past the mean count a term falls below 1e-13 of the sum."""
    r = math.exp(alpha * math.log(N)) * beta
    scale = N ** (1.0 - alpha)
    k0 = round(N * a)
    mean_count = scale * r / lam
    total = 0.0
    for start in range(k0, k0 + 5001, 64):
        ks = np.arange(start, start + 64)
        terms = _mixed_pmf_quadrature(r, lam, scale, ks)
        sums = total + np.cumsum(terms)
        done = np.flatnonzero((ks > mean_count) & (terms < 1e-13 * sums))
        if done.size:
            return float(sums[done[0]])
        total = float(sums[-1])
    raise RuntimeError("oracle tail sum did not terminate")


def _criterion6_instances():
    rng = np.random.default_rng(618)
    cases = []
    while len(cases) < 50:
        lam = float(rng.uniform(0.5, 4.0))
        alpha = float(rng.uniform(0.2, 3.0))
        N = int(rng.integers(2, 51))
        beta = float(rng.choice([0.5, 1.0, 1.0, 2.0]))
        k = int(rng.integers(0, min(200, max(2, int(4 * N * beta / lam))) + 1))
        a = k / N
        case = gamma_exact.GammaCase(beta, lam, alpha, a, N)
        if gamma_exact.log_p_exact(case) < -230:
            continue  # keep linear-space comparison meaningful
        cases.append((beta, lam, alpha, a, N))
    return cases


class TestCriterion6:
    def test_oracle_equivalence(self, acceptance_log):
        worst_p = worst_P = 0.0
        for beta, lam, alpha, a, N in _criterion6_instances():
            case = gamma_exact.GammaCase(beta, lam, alpha, a, N)
            p = gamma_exact.p_exact(case)
            worst_p = max(worst_p, abs(_oracle_point(beta, lam, alpha, a, N) - p) / p)
            P = gamma_exact.P_exact(case)
            worst_P = max(worst_P, abs(_oracle_tail(beta, lam, alpha, a, N) - P) / P)
        ok = worst_p <= 1e-8 and worst_P <= 1e-8
        acceptance_log(
            "criterion 6",
            "PASS" if ok else "FAIL",
            f"50 randomized instances; worst point rel {worst_p:.2e}, "
            f"worst tail rel {worst_P:.2e} (tol 1e-8)",
        )
        assert worst_p <= 1e-8
        assert worst_P <= 1e-8


class TestCriterion7:
    def test_cross_formula_identities(self, acceptance_log):
        devs = []
        # balanced-regime route equals the closed gamma-case series
        for a, N in ((1.0, 7.0), (2.0, 100.0)):
            _, point = tail_asymptotics.approx_intermediate(Exponential(2.5), a, N)
            series = gamma_exact.p_asym_intermediate(
                gamma_exact.GammaCase(1.0, 2.5, 1.0, a, N)
            )
            devs.append(abs(point.log_value - series.log_value))
        # flat service reduces the queue approximation to the same route
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for a, N in ((1.0, 50.0), (2.0, 100.0)):
                qa = queue.queue_approx(Exponential(2.5), queue.DetService(1.0), N, a)
                tail, point = tail_asymptotics.approx_intermediate(Exponential(2.5), a, N)
                devs.append(abs(qa.log_Q_check - tail.log_value))
                devs.append(abs(qa.log_q_check - point.log_value))
            # deterministic rates give the Stirling form of the Poisson mass
            service = queue.ExpService(0.5)
            N, a = 100.0, 1.3
            qa = queue.queue_approx(DeterministicRate(2.0), service, N, a)
            rho = 2.0 * service.sf_integral(0.0, 1.0)
            stirling = (
                N * a * math.log(rho / a) + N * (a - rho) - 0.5 * math.log(2.0 * math.pi * N * a)
            )
            devs.append(abs(qa.log_q_check - stirling))
        acceptance_log(
            "criterion 7",
            "PASS" if max(devs) <= 1e-10 else "FAIL",
            f"worst log-space identity deviation {max(devs):.2e} (tol 1e-10)",
        )
        assert max(devs) <= 1e-10


class TestCriterion8:
    def test_prefactor_sign_resolution(self, acceptance_log):
        # the constant exp(log P + N I + log(N) / 2) of the fast form for Pois(N) at level 2
        rate = rate_function(PoissonRate(1.0), 2.0).value

        def constant(N):
            tail = tail_asymptotics.approx_fast(DeterministicRate(1.0), 5.0, 2.0, N)[0]
            return math.exp(tail.log_value + N * rate + 0.5 * math.log(N))

        assert constant(1.0) == pytest.approx(
            1.0 / ((1.0 - math.exp(-math.log(2.0))) * math.sqrt(4.0 * math.pi)), rel=1e-12
        )

        def scaled(N):
            return poisson_tail(N, round(2.0 * N)) * math.exp(N * rate) * math.sqrt(N)

        dev_500 = abs(scaled(500.0) / constant(500.0) - 1.0)
        dev_1000 = abs(scaled(1000.0) / constant(1000.0) - 1.0)
        flipped = abs(-1.0 / math.expm1(math.log(2.0)) / math.sqrt(4.0 * math.pi))
        dev_flipped = abs(scaled(500.0) / flipped - 1.0)
        ok = dev_500 < 0.05 and dev_1000 < dev_500 and dev_flipped > dev_500
        acceptance_log(
            "criterion 8",
            "PASS" if ok else "FAIL",
            f"relative deviation {dev_500:.5f} at N=500 (tol 0.05), {dev_1000:.5f} at "
            f"N=1000; sign-flipped constant deviates by {dev_flipped:.3f}",
        )
        assert dev_500 < 0.05
        assert dev_1000 < dev_500
        assert dev_flipped > dev_500


class TestCriterion9:
    def test_retention_and_variance_forms(self, acceptance_log):
        checks = []
        for kind, E in (("exp", 0.5), ("det", 0.5), ("pareto", 0.5), ("exp", 1.0)):
            service = SERVICES[kind](E)
            for N in (10, 100, 1000):
                total = queue.omega_vector(N, service).sum() / N
                checks.append(abs(total - service.sf_integral(0.0, 1.0)))
        sq_forms = [
            abs(queue.ExpService(0.8).sf_sq_integral_total() - 0.4),
            abs(queue.DetService(0.8).sf_sq_integral_total() - 0.8),
            abs(queue.Pareto2Service(0.9).sf_sq_integral_total() - 0.3),
        ]
        det = queue.omega_vector(100, queue.DetService(0.5))
        par = queue.omega_vector(100, queue.Pareto2Service(0.5))
        crossing = all(par[i] < det[i] for i in range(50)) and all(
            par[i] > det[i] for i in range(50, 100)
        )
        m1 = queue.load_and_variance(POIS2, queue.ExpService(0.5), 100).M1
        ok = (
            max(checks) <= 1e-12
            and max(sq_forms) <= 1e-10
            and crossing
            and math.ceil(m1) == 87
        )
        acceptance_log(
            "criterion 9",
            "PASS" if ok else "FAIL",
            f"retention sums exact to {max(checks):.1e}, squared-tail integrals to "
            f"{max(sq_forms):.1e}, crossing pattern {crossing}, ceil(M1) = {math.ceil(m1)}",
        )
        assert max(checks) <= 1e-12
        assert max(sq_forms) <= 1e-10
        assert crossing
        assert math.ceil(m1) == 87


class TestCriterion10:
    def test_staffing_ordering(self, table1_results, acceptance_log):
        ordered = True
        for E in (0.05, 0.5, 1.0):
            for eps in (1e-3, 1e-4):
                det = table1_results[("det", E, eps)].servers_ceil
                exp_ = table1_results[("exp", E, eps)].servers_ceil
                par = table1_results[("pareto", E, eps)].servers_ceil
                ordered = ordered and det >= exp_ >= par
        acceptance_log(
            "criterion 10",
            "PASS" if ordered else "FAIL",
            "servers_ceil(det) >= servers_ceil(exp) >= servers_ceil(pareto) "
            "for all six (E, eps) pairs",
        )
        assert ordered
