"""The benchmark's three workloads: operation lists, generated from a seed
and the paper's parameters, and the correctness check of every operation.

An operation is one call into a public entry point: ``mixpois.cli.main``
with an argv, or a library function where the CLI exposes none.  A workload
is a fixed set of operations run as passes; the seed only orders each pass
and picks the Monte Carlo seeds, so every pass does the same work.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import random
from typing import Callable

import oracles

Z_95 = 1.959964  # the CLI's 95% CI half-width is Z_95 standard errors
# A Monte Carlo cell fails when its estimate is 4 standard errors from the
# exact value, or for crude cells when the hit count is as improbable as that
# under the exact Poisson law: one tail of 4 sigma.
SIGMAS = 4.0
ONE_TAIL_P = 3.167e-5

# Monte Carlo runs per simulate / queue-sim operation.  At this budget every
# operation in the mc_s_to_1pct audit set has a positive estimate: the
# rarest, fig4 at a = 0.2, expects about 35 hits.  A small budget gives many
# passes per run, so each operation's median time rests on many executions.
MC_RUNS = 50_000
PROBE_RUNS = 400_000

HEADERS = {
    "approx": "dist,alpha,a,N,quantity,regime,validity,gamma_exponent,log_value,value",
    "exact-gamma": "N,alpha,a,p_exact,p_asym,ratio,log_p_exact,log_p_asym",
    "simulate": "method,N,alpha,a,estimate,log_estimate,ci_halfwidth,runs,seed",
    "queue-approx": "N,a,theta_star,sigma2,log_q,log_Q,Q",
    "queue-sim": "method,N,a,estimate,log_estimate,ci_halfwidth,runs,seed",
    "omega": "i,omega_i",
    "staff": "service,E,eps,a_eps,servers_floor,servers_ceil,M1,M_inf,Q_floor_over_eps,"
             "Q_ceil_over_eps,Q_hat_over_eps,Q_hat_ci_over_eps,error",
}
RATE_MEANS = {"pois:2": 2.0, "twopoint:0.75,1,5": 2.0, "exp:0.5": 2.0}


@dataclasses.dataclass(frozen=True)
class Verdict:
    problems: list[str] = dataclasses.field(default_factory=list)  # count as a failed operation
    notes: list[str] = dataclasses.field(default_factory=list)     # reported, not counted


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation.  ``label`` names the same work across passes and seeds."""

    label: str
    argv: tuple[str, ...] | None = None
    call: Callable[[], str] | None = None  # library operation; returns its output text
    check: Callable[[int | None, str, str], Verdict] = None
    draws: int = 0       # scalar random draws, for Monte Carlo operations
    audit: bool = False  # member of the mc_s_to_1pct audit set
    exact: float | None = None  # probability a Monte Carlo cell estimates
    crude: bool = False  # estimate is a hit fraction
    exact_second_moment: float | None = None  # E[w^2] per run, where known


def draws_per_run(dist: str, alpha: float, N: float) -> int:
    """Scalar draws per run of simulate: gamma-pooled rate laws draw one pooled
    rate, the others round(N^alpha) slot rates; plus the Poisson count."""
    if dist.partition(":")[0] in ("exp", "gamma"):
        return 2
    return max(1, round(N**alpha)) + 1


# -- checking -----------------------------------------------------------------

def _rows(out: str, header: str, problems: list[str]) -> list[dict]:
    lines = out.splitlines()
    if not lines or lines[0] != header:
        problems.append(f"header {lines[0] if lines else ''!r} != {header!r}")
        return []
    rows = list(csv.DictReader(io.StringIO(out)))
    if not rows:
        problems.append("no data rows")
    for row in rows:
        for key, cell in row.items():
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                problems.append(f"non-finite {key}={cell}")
    return rows


def _cli_check(command: str, required: tuple[str, ...], specific=None, expect_exit: int = 0):
    """Exit code, CSV header, finite numeric fields, required fields, then
    ``specific(rows, verdict)`` on the parsed rows."""
    header = HEADERS[command]

    def check(rc, out, err) -> Verdict:
        verdict = Verdict()
        if rc != expect_exit:
            verdict.problems.append(f"exit {rc}, expected {expect_exit}: {err.strip()[:200]}")
            return verdict
        if expect_exit != 0:
            if out or not err.startswith("error: "):
                verdict.problems.append("error exit without the named error on stderr only")
            return verdict
        rows = _rows(out, header, verdict.problems)
        for row in rows:
            missing = [k for k in required if row.get(k, "") == ""]
            if missing:
                verdict.problems.append(f"empty fields {missing}")
        if rows and not verdict.problems and specific is not None:
            specific(rows, verdict)
        return verdict

    return check


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y))


def _positive(rows, verdict: Verdict) -> None:
    if not float(rows[0]["estimate"]) > 0.0:
        verdict.problems.append("audit operation without a positive estimate")


def cell_problem(op: Op, rows: list[dict]) -> str | None:
    """Test one Monte Carlo cell, pooled over a run's independent executions,
    against ``op.exact``.  One test per cell and run keeps the chance of a
    false failure in a run near 2e-3."""
    runs = [int(row["runs"]) for row in rows]
    estimates = [float(row["estimate"]) for row in rows]
    if op.crude:
        hits = sum(round(e * n) for e, n in zip(estimates, runs))
        mean = op.exact * sum(runs)
        p = oracles.poisson_tail(hits, mean, upper=hits >= mean)
        if p < ONE_TAIL_P:
            return f"{hits} hits in {sum(runs)} runs, exact mean {mean:.4g} (tail {p:.2g})"
        return None
    estimate = sum(estimates) / len(rows)
    se = math.sqrt(sum((float(row["ci_halfwidth"]) / Z_95) ** 2 for row in rows)) / len(rows)
    if op.exact_second_moment is not None:
        # With heavy-tailed weights a run that misses the rare large weights
        # reports too narrow a CI, and one that draws one reports a wide CI
        # but sits far above the exact standard error: take the larger.
        se = max(se, math.sqrt((op.exact_second_moment - op.exact**2) / sum(runs)))
    if not abs(estimate - op.exact) <= SIGMAS * se:
        return f"estimate {estimate:.6g} vs exact {op.exact:.6g}, standard error {se:.3g}"
    return None


def _simulate(method: str, dist: str, alpha: float, a: float, N: float, runs: int,
              seed: int, exact: float, audit: bool, exact_second_moment: float | None = None) -> Op:
    argv = ("simulate", "--method", method, "--dist", dist, "--alpha", f"{alpha:g}",
            "--a", f"{a:g}", "--N", f"{N:g}", "--runs", str(runs), "--seed", str(seed))
    required = ("estimate", "ci_halfwidth", "runs")
    return Op(
        label=f"simulate {method} {dist} alpha={alpha:g} a={a:g} N={N:g}",
        argv=argv,
        check=_cli_check("simulate", required, _positive if audit else None),
        draws=runs * draws_per_run(dist, alpha, N),
        audit=audit,
        exact=exact,
        crude=method == "mc",
        exact_second_moment=exact_second_moment,
    )


def _queue_sim(dist: str, service: str, a: float, runs: int, seed: int, audit: bool,
               exact: float | None = None) -> Op:
    N = 100
    argv = ("queue-sim", "--dist", dist, "--service", service, "--N", str(N), "--a", f"{a:g}",
            "--runs", str(runs), "--seed", str(seed))
    return Op(
        label=f"queue-sim {dist} {service} a={a:g}",
        argv=argv,
        check=_cli_check("queue-sim", ("estimate", "ci_halfwidth", "runs"),
                         _positive if audit else None),
        draws=runs * (N + 1),
        audit=audit,
        exact=exact,
        crude=True,
    )


def _fig2_exact(lam: float, alpha: float, a: float, N: float) -> float:
    return math.exp(oracles.log_nb_tail(lam, alpha, N, round(N * a)))


def determinism_probe(seed: int) -> Op:
    """The seeded Monte Carlo operation every run executes repeatedly; its
    CSV must be byte-identical each time.  A fig2 cell of mc-audit at a
    larger budget, chosen because its relative CI varies by about 1% across
    seeds, so it gives workloads without Monte Carlo steady draws_per_s and
    mc_s_to_1pct."""
    op = _simulate("is-fast", "exp:1", 2.0, 2.0, 8.0, PROBE_RUNS, seed,
                   _fig2_exact(1.0, 2.0, 2.0, 8.0), audit=True)
    return dataclasses.replace(op, label="determinism probe: " + op.label)


# -- staff-tables ---------------------------------------------------------------

def _staff_check(dist: str, kind: str, E: float, eps: float):
    mean = RATE_MEANS[dist]
    reference = oracles.TABLES.get(dist, {}).get((kind, E, eps))

    def specific(rows, verdict: Verdict) -> None:
        row = rows[0]
        if row["error"]:
            verdict.problems.append(f"row error {row['error']}")
            return
        a = float(row["a_eps"])
        q_floor, q_ceil = float(row["Q_floor_over_eps"]), float(row["Q_ceil_over_eps"])
        if (int(row["servers_floor"]), int(row["servers_ceil"])) != (math.floor(100 * a),
                                                                     math.ceil(100 * a)):
            verdict.problems.append("server counts do not bracket 100 * a_eps")
        # Q decreases in a and Q(a_eps) = eps, so the pair must straddle 1
        if not (q_floor >= 1.0 - 1e-4 and q_ceil <= 1.0 + 1e-4):
            verdict.problems.append(f"pair ({q_floor}, {q_ceil}) does not straddle eps")
        if not _close(float(row["M_inf"]), 100 * mean * E, 1e-9):
            verdict.problems.append(f"M_inf {row['M_inf']} != N * mean * E")
        if not _close(float(row["M1"]), 100 * mean * oracles.service_mean_retention(kind, E), 1e-9):
            verdict.problems.append(f"M1 {row['M1']} != N * mean * int_0^1 sf")
        if reference is None:
            return
        a_ref, qf_ref, qc_ref = reference
        if abs(a - a_ref) > oracles.A_TOL:
            verdict.problems.append(f"a_eps {a} vs tabulated {a_ref}")
        pair_dev = max(abs(q_floor - qf_ref), abs(q_ceil - qc_ref))
        if pair_dev > oracles.PAIR_TOL:
            message = (f"{dist} {kind}:{E:g} eps={eps:g}: pair ({q_floor:.4f}, {q_ceil:.4f}) "
                       f"vs tabulated ({qf_ref}, {qc_ref})")
            if (dist, kind, E, eps) == oracles.ERRATUM_PAIR:
                verdict.notes.append("reference-data erratum, " + message)
            else:
                verdict.problems.append(message)

    return specific


STAFF_RATES = ("pois:2", "twopoint:0.75,1,5", "exp:0.5")
STAFF_SERVICES = ("exp", "det", "pareto")
STAFF_MEAN = 0.5  # the thinned grid: one service mean, E = 0.5, for every row
STAFF_EPS = (1e-3, 1e-4)


def staff_tables(seed: int, k: int) -> list[Op]:
    rng = random.Random(seed * 1_000_003 + k)
    ops = []
    for dist in STAFF_RATES:
        for kind in STAFF_SERVICES:
            for eps in STAFF_EPS:
                service = f"{kind}:{STAFF_MEAN:g}"
                argv = ("staff", "--dist", dist, "--service", service, "--N", "100",
                        "--eps", f"{eps:g}", "--verify-runs", "0",
                        "--seed", str(rng.getrandbits(32)))
                required = ("a_eps", "servers_floor", "servers_ceil", "M1", "M_inf",
                            "Q_floor_over_eps", "Q_ceil_over_eps")
                ops.append(Op(
                    label=f"staff {dist} {service} eps={eps:g}",
                    argv=argv,
                    check=_cli_check("staff", required,
                                     _staff_check(dist, kind, STAFF_MEAN, eps)),
                ))
    rng.shuffle(ops)
    return ops


# -- mc-audit -------------------------------------------------------------------

FIG4_LEVELS = (0.14, 0.16, 0.18, 0.2, 0.22, 0.24)
# fig4 levels above 0.2 expect under 10 hits per operation at MC_RUNS (about
# 130 and 35 in a run), too few for a steady relative CI, so they count
# toward draws_per_s only.
FIG4_AUDIT_MAX = 0.2


def mc_audit(seed: int, k: int) -> list[Op]:
    rng = random.Random(seed * 1_000_003 + k)
    runs = MC_RUNS
    ops = []
    # repro fig2: gamma-pooled exp rates, one gamma draw per run
    for N in (2, 4, 8, 16, 32, 64):
        exact = _fig2_exact(1.0, 2.0, 2.0, float(N))
        for method in ("is-fast", "mc"):
            ops.append(_simulate(method, "exp:1", 2.0, 2.0, float(N), runs, rng.getrandbits(32),
                                 exact, audit=method != "mc"))
    for N in (8, 16, 25, 36, 49):
        exact = _fig2_exact(2.5, 0.5, 2.0, float(N))
        m2 = math.exp(oracles.log_is_slow_second_moment(2.5, 0.5, 2.0, float(N)))
        ops.append(_simulate("is-slow", "exp:2.5", 0.5, 2.0, float(N), runs,
                             rng.getrandbits(32), exact, audit=True, exact_second_moment=m2))
        ops.append(_simulate("mc", "exp:2.5", 0.5, 2.0, float(N), runs, rng.getrandbits(32),
                             exact, audit=False))
    # per-slot cells: round(100^0.5) = 10 slot draws per run
    for dist in ("pois:2", "twopoint:0.75,1,5"):
        exact = oracles.per_slot_tail(dist, 10, 100.0, 300)
        for method in ("is-slow", "mc"):
            ops.append(_simulate(method, dist, 0.5, 3.0, 100.0, runs, rng.getrandbits(32),
                                 exact, audit=method != "mc"))
    # repro fig4 occupancy simulation: N + 1 draws per run
    for a in FIG4_LEVELS:
        ops.append(_queue_sim("pois:0.1", "exp:1", a, runs, rng.getrandbits(32),
                              audit=a <= FIG4_AUDIT_MAX))
    # Criterion-3 occupancy audits at the tabulated staffing levels, checked
    # against the tabulated Q/eps at eps = 1e-3
    for dist, (a_ref, q_ref) in oracles.OCCUPANCY_AUDITS.items():
        ops.append(_queue_sim(dist, "exp:0.5", a_ref, runs, rng.getrandbits(32), audit=True,
                              exact=q_ref * 1e-3))
    rng.shuffle(ops)
    return ops


# -- exact-sweep ----------------------------------------------------------------

def _exact_gamma_check(lam: float, alpha: float, a: float, N: float):
    k = round(N * a)
    log_ref = oracles.log_nb_point(lam, alpha, N, k)
    tol = 1e-10 + 1e-15 * oracles.nb_rounding_scale(lam, alpha, N, k)

    def specific(rows, verdict: Verdict) -> None:
        row = rows[0]
        if abs(float(row["log_p_exact"]) - log_ref) > tol:
            verdict.problems.append(f"log_p_exact {row['log_p_exact']} vs exact {log_ref:.12g}")
        implied = math.exp(float(row["log_p_asym"]) - float(row["log_p_exact"]))
        if not _close(float(row["ratio"]), implied, 1e-9):
            verdict.problems.append("ratio disagrees with its log columns")

    return specific


APPROX_REGIMES = {0.2: "SlowIExact", 1.0: "Intermediate", 5.0: "FastExact"}
LATTICE = ("pois", "twopoint")


def _approx_check(alpha: float):
    def specific(rows, verdict: Verdict) -> None:
        row = rows[0]
        if row["regime"] != APPROX_REGIMES[alpha]:
            verdict.problems.append(f"regime {row['regime']}, expected {APPROX_REGIMES[alpha]}")
        log_value = float(row["log_value"])
        if log_value > -700.0 and not _close(float(row["value"]), math.exp(log_value), 1e-9):
            verdict.problems.append("value disagrees with log_value")

    return specific


def _queue_approx_check(rows, verdict: Verdict) -> None:
    row = rows[0]
    Q = float(row["Q"])
    if not (0.0 < Q < 1.0 and _close(Q, math.exp(float(row["log_Q"])), 1e-9)):
        verdict.problems.append(f"Q {Q} inconsistent with log_Q {row['log_Q']}")
    if not (float(row["theta_star"]) > 0.0 and float(row["sigma2"]) > 0.0):
        verdict.problems.append("non-positive tilt or variance")


def _omega_check(kind: str, E: float, N: int):
    mean_ref = oracles.service_mean_retention(kind, E)

    def specific(rows, verdict: Verdict) -> None:
        if [int(r["i"]) for r in rows] != list(range(1, N + 1)):
            verdict.problems.append("slot indices are not 1..N")
            return
        omegas = [float(r["omega_i"]) for r in rows]
        if not all(0.0 <= w <= 1.0 for w in omegas):
            verdict.problems.append("retention probability outside [0, 1]")
        if abs(math.fsum(omegas) / N - mean_ref) > 1e-10:
            verdict.problems.append(f"mean retention {math.fsum(omegas) / N} vs {mean_ref}")

    return specific


def _tail_op(lam: float, alpha: float, a: float, N: float) -> Op:
    from mixpois import gamma_exact

    k = round(N * a)
    log_ref = oracles.log_nb_tail(lam, alpha, N, k)
    tol = 1e-10 + 1e-15 * oracles.nb_rounding_scale(lam, alpha, N, k)

    def call() -> str:
        return repr(gamma_exact.P_exact(gamma_exact.GammaCase(1.0, lam, alpha, a, N)))

    def check(rc, out, err) -> Verdict:
        verdict = Verdict()
        if rc != 0:
            verdict.problems.append(f"raised: {err.strip()[:200]}")
        elif not (float(out) > 0.0 and abs(math.log(float(out)) - log_ref) <= tol):
            verdict.problems.append(f"P_exact {out} vs exact {math.exp(log_ref):.12g}")
        return verdict

    return Op(label=f"P_exact exp:{lam:g} alpha={alpha:g} a={a:g} N={N:g}", call=call,
              check=check)


def exact_sweep(seed: int, k: int) -> list[Op]:
    rng = random.Random(seed * 1_000_003 + k)
    ops = []
    # repro fig1
    for alpha, grid in ((5.0, (5, 10, 20, 40)), (0.2, (20, 40, 80, 160))):
        for N in grid:
            ops.append(Op(
                label=f"exact-gamma exp:2.5 alpha={alpha:g} N={N}",
                argv=("exact-gamma", "--dist", "exp:2.5", "--alpha", f"{alpha:g}", "--a", "1",
                      "--N", str(N)),
                check=_cli_check("exact-gamma", ("p_exact", "p_asym", "ratio"),
                                 _exact_gamma_check(2.5, alpha, 1.0, float(N))),
            ))
    # repro fig4 approximations
    for a in FIG4_LEVELS:
        ops.append(Op(
            label=f"queue-approx pois:0.1 exp:1 a={a:g}",
            argv=("queue-approx", "--dist", "pois:0.1", "--service", "exp:1", "--N", "100",
                  "--a", f"{a:g}"),
            check=_cli_check("queue-approx", ("theta_star", "sigma2", "log_Q", "Q"),
                             _queue_approx_check),
        ))
    # sharp approximations; lattice rate laws below alpha = 1/2 must exit 2
    for dist in ("exp:2.5", "gamma:2,1", "pois:2", "twopoint:0.75,1,5"):
        for alpha in APPROX_REGIMES:
            lattice_slow = dist.partition(":")[0] in LATTICE and alpha < 0.5
            ops.append(Op(
                label=f"approx {dist} alpha={alpha:g}",
                argv=("approx", "--dist", dist, "--alpha", f"{alpha:g}", "--a", "3",
                      "--N", "100"),
                check=_cli_check("approx", ("regime", "log_value", "value"),
                                 _approx_check(alpha), expect_exit=2 if lattice_slow else 0),
            ))
    for kind in STAFF_SERVICES:
        ops.append(Op(
            label=f"omega {kind}:0.5",
            argv=("omega", "--service", f"{kind}:0.5", "--N", "100"),
            check=_cli_check("omega", ("i", "omega_i"), _omega_check(kind, 0.5, 100)),
        ))
    # exact negative-binomial tails, where the term loop is long
    for alpha, grid in ((0.5, (1e2, 1e3, 1e4)), (1.0, (1e2, 1e3))):
        for N in grid:
            ops.append(_tail_op(2.5, alpha, 1.0, N))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"staff-tables": staff_tables, "mc-audit": mc_audit, "exact-sweep": exact_sweep}
# wall seconds per pass, measured on a 2-vCPU host at the commit that
# introduced the benchmark; a run does round(seconds / PASS_SECONDS) passes
PASS_SECONDS = {"staff-tables": 11.0, "mc-audit": 2.2, "exact-sweep": 0.16}
# reference kernel in speed.py whose shape matches the workload's work
KERNELS = {"staff-tables": "python_kernel", "mc-audit": "numpy_kernel",
           "exact-sweep": "python_kernel"}

# rate and service specifications each workload parses, for the set-up probe
SPECS = {
    "staff-tables": (STAFF_RATES, tuple(f"{kind}:{STAFF_MEAN:g}" for kind in STAFF_SERVICES)),
    "mc-audit": (("exp:1", "exp:2.5", "pois:2", "twopoint:0.75,1,5", "pois:0.1"),
                 ("exp:1", "exp:0.5")),
    "exact-sweep": (("exp:2.5", "gamma:2,1", "pois:2", "twopoint:0.75,1,5", "pois:0.1"),
                    ("exp:1", "exp:0.5", "det:0.5", "pareto:0.5")),
}
