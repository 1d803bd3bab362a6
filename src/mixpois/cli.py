"""Command-line interface.

One invocation, one CSV table on stdout (or --output).  All numbers are
printed with 12 significant digits, log-space columns accompany linear ones,
and identical invocations produce byte-identical output.  Exit status: 0 on
success, 2 on validation errors, 3 on numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from . import gamma_exact, queue, sampling, staffing, tail_asymptotics
from .errors import ConvergenceError, ParseError
from .rates import GammaRate, parse_rate, spec_label
from .sampling import StreamPartition

__all__ = ["main", "build_parser"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_rows(args, rows: list[dict]) -> None:
    """The rows as CSV, under a header of the first row's keys."""
    out = sys.stdout if args.output is None else open(args.output, "w", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    finally:
        if out is not sys.stdout:
            out.close()


def _exp(x: float) -> float:
    """e^x, infinite beyond the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _finite_float(text: str) -> float:
    """The argparse type of every float option: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _finite_floats(text: str) -> list[float]:
    return [_finite_float(part) for part in text.split(",")]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default=None, help="write CSV here instead of stdout")


def _add_seeding(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed, 64-bit unsigned (default 0)")
    parser.add_argument("--shards", type=int, default=1,
                        help="independent sub-streams merged deterministically (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixpois",
        description="Overflow probabilities of mixed Poisson counts with "
        "periodically resampled arrival rates, and infinite-server staffing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "approx",
        help="regime-dispatched sharp/log approximation of the overflow probability",
        description="Requires a above the mean of the rate distribution. "
        "Sharp values exist for alpha > 2 and alpha < 1/2 (with lower-bound "
        "tagging on the partially proven bands) and at alpha = 1; other alpha "
        "produce the rate-only value tagged OutsideProvenRange.",
    )
    p.add_argument("--dist", required=True,
                   help="rate law: exp:<lam> | gamma:<beta>,<lam> | pois:<lam> | "
                        "twopoint:<p>,<lam1>,<lam2> | det:<lam>")
    p.add_argument("--alpha", type=_finite_float, required=True, help="resampling exponent, > 0")
    p.add_argument("--a", type=_finite_float, required=True,
                   help="overflow level, above the mean rate")
    p.add_argument("--N", type=_finite_float, required=True, help="scale parameter, > 0")
    p.add_argument("--quantity", choices=("p", "P"), default="P",
                   help="point probability (p) or tail (P); default P")
    _add_common(p)
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser(
        "exact-gamma",
        help="exact point/tail probabilities for exponential or gamma rates",
        description="Requires an exp:<lam> or gamma:<beta>,<lam> rate law and "
        "integer N*a.  The refined series column needs exponential rates "
        "(beta = 1) and a > 1/lam; it is left empty otherwise.",
    )
    p.add_argument("--dist", required=True, help="exp:<lam> or gamma:<beta>,<lam>")
    p.add_argument("--alpha", type=_finite_float, required=True, help="resampling exponent, > 0")
    p.add_argument("--a", type=_finite_float, required=True, help="level with N*a integer")
    p.add_argument("--N", type=_finite_float, required=True, help="scale parameter, > 0")
    _add_common(p)
    p.set_defaults(handler=_cmd_exact_gamma)

    p = sub.add_parser(
        "simulate",
        help="Monte Carlo estimation of the overflow probability",
        description="Methods: mc (crude), is-fast (Poisson-count proposal; "
        "quantity p needs integer N*a), is-slow (twisted rates; needs "
        "mean < a < support supremum).  Estimates are reproducible for a "
        "fixed seed and shard count.",
    )
    p.add_argument("--method", choices=("mc", "is-fast", "is-slow"), required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--a", type=_finite_float, required=True)
    p.add_argument("--N", type=_finite_float, required=True)
    p.add_argument("--runs", type=int, required=True, help="Monte Carlo runs, >= 1")
    p.add_argument("--quantity", choices=("p", "P"), default="P",
                   help="is-fast only: point (p) or tail (P); default P")
    _add_seeding(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "queue-approx",
        help="sharp infinite-server occupancy tail approximation",
        description="Requires a above the mean load (mean rate times the "
        "integrated complementary service cdf) and, for rate laws with a "
        "finite MGF domain, a reachable tilt.  Levels where the approximation "
        "exceeds 1 are rejected.",
    )
    p.add_argument("--dist", required=True)
    p.add_argument("--service", required=True, help="exp:<E> | det:<E> | pareto:<E>")
    p.add_argument("--N", type=_finite_float, required=True)
    p.add_argument("--a", type=_finite_float, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_queue_approx)

    p = sub.add_parser(
        "queue-sim",
        help="crude Monte Carlo for the infinite-server occupancy tail",
        description="Draws N slot rates per run; the budget guard rejects "
        "runs * (N + 1) above 4e9 scalar draws.",
    )
    p.add_argument("--dist", required=True)
    p.add_argument("--service", required=True)
    p.add_argument("--N", type=int, required=True, help="slot count, positive integer")
    p.add_argument("--a", type=_finite_float, required=True)
    p.add_argument("--runs", type=int, required=True)
    _add_seeding(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_queue_sim)

    p = sub.add_parser(
        "omega",
        help="slot retention probabilities of a service law",
        description="Prints omega_i for i = 1..N.",
    )
    p.add_argument("--service", required=True)
    p.add_argument("--N", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_omega)

    p = sub.add_parser(
        "staff",
        help="dimensioning: smallest capacity meeting an overflow target",
        description="Bisects the sharp occupancy approximation to "
        "|Q - eps| < tol (default 1e-9).  --service and --eps accept "
        "comma-separated lists; failures are reported per row.  With "
        "--verify-runs > 0 each solution is audited by crude Monte Carlo.",
    )
    p.add_argument("--dist", required=True)
    p.add_argument("--service", required=True,
                   help="service law or comma-separated list of them")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", type=_finite_floats, required=True,
                   help="target level(s) in (0,1), comma-separated")
    p.add_argument("--tol", type=_finite_float, default=1e-9,
                   help="bisection tolerance on |Q - eps| (default 1e-9)")
    p.add_argument("--verify-runs", type=int, default=0,
                   help="crude MC audit runs at the solution (default 0 = off)")
    _add_seeding(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_staff)

    p = sub.add_parser(
        "repro",
        help="emit the invocations reproducing the reference figures and tables",
        description="Targets: fig1, fig2, fig4, table1, table2, all.  --runs "
        "scales the Monte Carlo budgets of the emitted commands.",
    )
    p.add_argument("--target", choices=("fig1", "fig2", "fig4", "table1", "table2", "all"),
                   default="all")
    p.add_argument("--runs", type=int, default=1_000_000,
                   help="Monte Carlo budget used in the emitted commands (default 1e6)")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_repro)

    return parser


def _cmd_approx(args) -> list[dict]:
    dist = parse_rate(args.dist)
    tail, point = tail_asymptotics.approx_auto(dist, args.alpha, args.a, args.N)
    chosen = point if args.quantity == "p" else tail
    return [{
        "dist": args.dist, "alpha": args.alpha, "a": args.a, "N": args.N,
        "quantity": args.quantity, "regime": chosen.regime, "validity": chosen.validity,
        "gamma_exponent": chosen.gamma_exponent,
        "log_value": chosen.log_value, "value": chosen.value,
    }]


def _cmd_exact_gamma(args) -> list[dict]:
    dist = parse_rate(args.dist)
    if not isinstance(dist, GammaRate):
        raise ParseError("--dist: exact-gamma needs an exp:<lam> or gamma:<beta>,<lam> rate law")
    case = gamma_exact.GammaCase(beta=dist.beta, lam=dist.lam, alpha=args.alpha, a=args.a, N=args.N)
    log_p = gamma_exact.log_p_exact(case)
    row = {
        "N": args.N, "alpha": args.alpha, "a": args.a,
        "p_exact": _exp(log_p), "p_asym": None, "ratio": None,
        "log_p_exact": log_p, "log_p_asym": None,
    }
    if dist.beta == 1.0 and args.a > 1.0 / dist.lam:
        if args.alpha > 1.0:
            asym = gamma_exact.p_asym_fast(case)
        elif args.alpha < 1.0:
            asym = gamma_exact.p_asym_slow(case)
        else:
            asym = gamma_exact.p_asym_intermediate(case)
        row["p_asym"] = asym.value
        row["log_p_asym"] = asym.log_value
        row["ratio"] = _exp(asym.log_value - log_p)
    return [row]


def _estimate_row(head: dict, result: sampling.EstimatorResult, seed: int) -> dict:
    """The columns ``head`` followed by a Monte Carlo estimate's columns."""
    return {
        **head,
        "estimate": result.estimate,
        "log_estimate": math.log(result.estimate) if result.estimate > 0.0 else None,
        "ci_halfwidth": result.ci_halfwidth_95, "runs": result.runs, "seed": seed,
    }


def _cmd_simulate(args) -> list[dict]:
    config = sampling.EstimatorConfig(
        args.method, parse_rate(args.dist), args.alpha, args.a, args.runs,
        quantity="point" if args.quantity == "p" else "tail",
        base_seed=args.seed, shards=args.shards,
    )
    head = {"method": args.method, "N": args.N, "alpha": args.alpha, "a": args.a}
    return [_estimate_row(head, config.run(args.N), args.seed)]


def _cmd_queue_approx(args) -> list[dict]:
    dist = parse_rate(args.dist)
    service = queue.parse_service(args.service)
    approx = queue.queue_approx(dist, service, args.N, args.a)
    return [{
        "N": args.N, "a": args.a, "theta_star": approx.theta_star,
        "sigma2": approx.sigma2, "log_q": approx.log_q_check,
        "log_Q": approx.log_Q_check, "Q": approx.Q_check,
    }]


def _cmd_queue_sim(args) -> list[dict]:
    dist = parse_rate(args.dist)
    service = queue.parse_service(args.service)
    partition = StreamPartition(args.seed, args.shards)
    result = queue.mc_Q(dist, service, args.N, args.a, args.runs, partition)
    return [_estimate_row({"method": "mc", "N": args.N, "a": args.a}, result, args.seed)]


def _cmd_omega(args) -> list[dict]:
    service = queue.parse_service(args.service)
    omegas = queue.omega_vector(args.N, service)
    return [{"i": i, "omega_i": float(w)} for i, w in enumerate(omegas, start=1)]


def _cmd_staff(args) -> list[dict]:
    dist = parse_rate(args.dist)
    services = [queue.parse_service(s) for s in args.service.split(",")]
    rows_out = []
    table = staffing.staffing_table(
        dist, services, args.N, args.eps, tol=args.tol,
        verify_runs=args.verify_runs, base_seed=args.seed,
    )
    if all(row.error is not None for row in table):
        # batch rows report errors in-band, but a fully failed invocation
        # surfaces the first failure through the exit status
        first = table[0].error
        if first.startswith("ConvergenceError"):
            raise ConvergenceError(first)
        raise ValueError(first)
    for row in table:
        r = row.result
        rows_out.append({
            "service": spec_label(row.service), "E": row.service.mean, "eps": row.epsilon,
            "a_eps": r.a_eps if r else None,
            "servers_floor": r.servers_floor if r else None,
            "servers_ceil": r.servers_ceil if r else None,
            "M1": r.M1 if r else None,
            "M_inf": r.M_inf if r else None,
            "Q_floor_over_eps": r.Q_at_floor / row.epsilon if r else None,
            "Q_ceil_over_eps": r.Q_at_ceil / row.epsilon if r else None,
            "Q_hat_over_eps": (r.verification.estimate / row.epsilon
                               if r and r.verification else None),
            "Q_hat_ci_over_eps": (r.verification.ci_halfwidth_95 / row.epsilon
                                  if r and r.verification else None),
            "error": row.error,
        })
    return rows_out


_TABLE_SERVICES = "exp:0.05,exp:0.5,exp:1,det:0.05,det:0.5,det:1,pareto:0.05,pareto:0.5,pareto:1"


def _cmd_repro(args) -> list[dict]:
    runs = args.runs
    seed = args.seed
    rows = []

    def emit(target: str, command: str) -> None:
        rows.append({"target": target, "command": command})

    if args.target in ("fig1", "all"):
        for N in (5, 10, 20, 40):
            emit("fig1", f"mixpois exact-gamma --dist exp:2.5 --alpha 5 --a 1 --N {N}")
        for N in (20, 40, 80, 160):
            emit("fig1", f"mixpois exact-gamma --dist exp:2.5 --alpha 0.2 --a 1 --N {N}")
    if args.target in ("fig2", "all"):
        for N in (2, 4, 8, 16, 32, 64):
            for method in ("is-fast", "mc"):
                emit("fig2", f"mixpois simulate --method {method} --dist exp:1 --alpha 2 "
                             f"--a 2 --N {N} --runs {runs} --seed {seed}")
        for N in (8, 16, 25, 36, 49):
            for method in ("is-slow", "mc"):
                emit("fig2", f"mixpois simulate --method {method} --dist exp:2.5 --alpha 0.5 "
                             f"--a 2 --N {N} --runs {runs} --seed {seed}")
    if args.target in ("fig4", "all"):
        for a in (0.14, 0.16, 0.18, 0.2, 0.22, 0.24):
            emit("fig4", f"mixpois queue-approx --dist pois:0.1 --service exp:1 --N 100 --a {a}")
            emit("fig4", f"mixpois queue-sim --dist pois:0.1 --service exp:1 --N 100 --a {a} "
                         f"--runs {runs} --seed {seed}")
    if args.target in ("table1", "all"):
        emit("table1", f"mixpois staff --dist pois:2 --service {_TABLE_SERVICES} --N 100 "
                       f"--eps 1e-3,1e-4 --verify-runs {runs} --seed {seed}")
    if args.target in ("table2", "all"):
        emit("table2", f"mixpois staff --dist twopoint:0.75,1,5 --service {_TABLE_SERVICES} "
                       f"--N 100 --eps 1e-3,1e-4 --verify-runs {runs} --seed {seed}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or help
        return exc.code
    try:
        _write_rows(args, args.handler(args))
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
