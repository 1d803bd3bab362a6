"""Command-line interface.

One invocation, one CSV table on stdout (or --output).  All numbers are
printed with 12 significant digits, log-space columns accompany linear ones,
and identical invocations produce byte-identical output.  Exit status: 0 on
success, 2 on validation errors, 3 on numerical non-convergence.

The options several subcommands share (the rate and service laws, alpha,
a, N, runs and seed) are declared once, in ``_SHARED``, with the same help
in every command; ``_add_command`` registers a subcommand from their keys
and its own options, in usage order, then --output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import sys

from . import gamma_exact, queue, sampling, staffing, tail_asymptotics
from .errors import ConvergenceError, DomainError, MixPoisError, ParseError
from .numerics import exp_or_inf
from .rates import GammaRate, parse_rate, spec_label

__all__ = ["main", "build_parser"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_rows(out, rows: list[dict]) -> None:
    """The rows as CSV, under a header of the first row's keys, each row's
    values in header order.  A row whose keys differ from the header's raises:
    ValueError for another count of keys, KeyError for another key."""
    header = list(rows[0])
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row keys {list(row)} differ from the header {header}")
        writer.writerow([_fmt(row[key]) for key in header])


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


# the options several subcommands share, each declared once: its flag and
# its add_argument keywords.  The integer slot count is the "slots" entry.
_SHARED = {
    "dist": ("--dist", dict(required=True, help="rate law: exp:<lam> | gamma:<beta>,<lam> | "
                            "pois:<lam> | twopoint:<p>,<lam1>,<lam2> | det:<lam>")),
    "service": ("--service", dict(required=True,
                                  help="service law: exp:<E> | det:<E> | pareto:<E>")),
    "alpha": ("--alpha", dict(type=_finite_float, required=True, help="resampling exponent, > 0")),
    "a": ("--a", dict(type=_finite_float, required=True, help="overflow level")),
    "N": ("--N", dict(type=_finite_float, required=True, help="scale parameter, > 0")),
    "slots": ("--N", dict(type=int, required=True, help="slot count, positive integer")),
    "runs": ("--runs", dict(type=int, required=True, help="Monte Carlo runs, >= 1")),
    "seed": ("--seed", dict(type=int, default=0, help="seed in [0, 2^64) (default 0)")),
}


def _add_command(sub, name: str, summary: str, description: str, options: tuple,
                 handler) -> None:
    """The subcommand ``name``: ``options`` in order, each a key of _SHARED or
    a (flag, keywords) pair of the command's own, then --output."""
    parser = sub.add_parser(name, help=summary, description=description)
    for option in options:
        flag, keywords = _SHARED[option] if isinstance(option, str) else option
        parser.add_argument(flag, **keywords)
    parser.add_argument("--output", default=None, help="write CSV here instead of stdout")
    parser.set_defaults(handler=handler)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing leaves no state in it, and the handlers reach the
    package through module attributes.  ``build_parser.__wrapped__()``
    builds a fresh one."""
    parser = argparse.ArgumentParser(
        prog="mixpois",
        description="Overflow probabilities of mixed Poisson counts with "
        "periodically resampled arrival rates, and infinite-server staffing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # the subcommand parsers by name, for _parse
    _add_command(sub, "approx",
                 "regime-dispatched sharp/log approximation of the overflow probability",
                 "Requires a above the mean of the rate distribution. "
                 "Sharp values exist for alpha > 2 and alpha < 1/2 (with lower-bound "
                 "tagging on the partially proven bands) and at alpha = 1; other alpha "
                 "produce the rate-only value tagged OutsideProvenRange.",
                 ("dist", "alpha", "a", "N",
                  ("--quantity", dict(choices=("p", "P"), default="P",
                                      help="point probability (p) or tail (P); default P"))),
                 _cmd_approx)
    _add_command(sub, "exact-gamma",
                 "exact point/tail probabilities for exponential or gamma rates",
                 "Requires an exp:<lam> or gamma:<beta>,<lam> rate law and "
                 "integer N*a.  The refined series column needs exponential rates "
                 "(beta = 1) and a > 1/lam; it is left empty otherwise.",
                 ("dist", "alpha", "a", "N"), _cmd_exact_gamma)
    _add_command(sub, "simulate",
                 "Monte Carlo estimation of the overflow probability",
                 "Methods: mc (crude), is-fast (Poisson-count proposal; "
                 "quantity p needs integer N*a), is-slow (twisted rates; needs "
                 "mean < a < support supremum).  Estimates are reproducible for a "
                 "fixed seed.",
                 (("--method", dict(choices=("mc", "is-fast", "is-slow"), required=True)),
                  "dist", "alpha", "a", "N", "runs",
                  ("--quantity", dict(choices=("p", "P"), default="P",
                                      help="is-fast only: point (p) or tail (P); default P")),
                  "seed"), _cmd_simulate)
    _add_command(sub, "queue-approx",
                 "sharp infinite-server occupancy tail approximation",
                 "Requires a above the mean load (mean rate times the "
                 "integrated complementary service cdf) and, for rate laws with a "
                 "finite MGF domain, a reachable tilt.  Levels where the approximation "
                 "exceeds 1 are rejected.",
                 ("dist", "service", "N", "a"), _cmd_queue_approx)
    _add_command(sub, "queue-sim",
                 "crude Monte Carlo for the infinite-server occupancy tail",
                 "The budget guard charges each run N + 1 scalar draws, whatever the "
                 "rate law, and rejects runs * (N + 1) above 4e9 and N + 1 above 4e6.",
                 ("dist", "service", "slots", "a", "runs", "seed"), _cmd_queue_sim)
    _add_command(sub, "omega",
                 "slot retention probabilities of a service law",
                 "Prints omega_i for i = 1..N.",
                 ("service", "slots"), _cmd_omega)
    _add_command(sub, "staff",
                 "dimensioning: smallest capacity meeting an overflow target",
                 "Solves the sharp occupancy approximation for eps to "
                 "|Q / eps - 1| < 1e-6.  --service and --eps accept "
                 "comma-separated lists; failures are reported per row.  With "
                 "--verify-runs > 0 each solution is audited by crude Monte Carlo.",
                 ("dist", "service", "slots",
                  ("--eps", dict(type=_finite_floats, required=True,
                                 help="target level(s) in (0,1), comma-separated")),
                  ("--verify-runs",
                   dict(type=int, default=0,
                        help="crude MC audit runs at the solution (default 0 = off)")),
                  "seed"), _cmd_staff)
    _add_command(sub, "repro",
                 "emit the invocations reproducing the reference figures and tables",
                 "Targets: fig1, fig2, fig4, table1, table2, all.  --runs "
                 "scales the Monte Carlo budgets of the emitted commands.",
                 (("--target", dict(choices=("fig1", "fig2", "fig4", "table1", "table2", "all"),
                                    default="all")),
                  ("--runs",
                   dict(type=int, default=1_000_000,
                        help="Monte Carlo budget used in the emitted commands (default 1e6)")),
                  "seed"), _cmd_repro)
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
        "p_exact": exp_or_inf(log_p), "p_asym": None, "ratio": None,
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
        row["ratio"] = exp_or_inf(asym.log_value - log_p)
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
    dist = parse_rate(args.dist)
    if args.quantity == "p" and args.method != "is-fast":
        raise DomainError(f"{args.method} estimates only the tail, not the point")
    if args.method == "is-fast":
        result = sampling.is_fast(dist, args.alpha, args.a, args.N, args.runs, args.seed,
                                  quantity="point" if args.quantity == "p" else "tail")
    else:
        estimator = sampling.mc_P if args.method == "mc" else sampling.is_slow
        result = estimator(dist, args.alpha, args.a, args.N, args.runs, args.seed)
    head = {"method": args.method, "N": args.N, "alpha": args.alpha, "a": args.a}
    return [_estimate_row(head, result, args.seed)]


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
    result = queue.mc_Q(dist, service, args.N, args.a, args.runs, args.seed)
    return [_estimate_row({"method": "mc", "N": args.N, "a": args.a}, result, args.seed)]


def _cmd_omega(args) -> list[dict]:
    service = queue.parse_service(args.service)
    omegas = queue.omega_vector(args.N, service)
    return [{"i": i, "omega_i": float(w)} for i, w in enumerate(omegas, start=1)]


def _check_runs(option: str, runs: int, least: int, seed: int) -> None:
    """Refuse a run count below ``least`` or a seed out of range before any work."""
    if runs < least:
        raise DomainError(f"{option} must be >= {least}, got {runs}")
    sampling.check_seed(seed)


_STAFF_COLUMNS = ("a_eps", "servers_floor", "servers_ceil", "M1", "M_inf", "Q_floor_over_eps",
                  "Q_ceil_over_eps", "Q_hat_over_eps", "Q_hat_ci_over_eps")


def _cmd_staff(args) -> list[dict]:
    _check_runs("--verify-runs", args.verify_runs, 0, args.seed)
    dist = parse_rate(args.dist)
    services = [queue.parse_service(s) for s in args.service.split(",")]
    rows_out = []
    errors = []
    for service in services:
        for eps in args.eps:
            values, error = (None,) * len(_STAFF_COLUMNS), None
            try:
                r = staffing.solve_staffing(dist, service, args.N, eps)
                audit = (None, None)
                if args.verify_runs > 0:
                    result = queue.mc_Q(dist, service, args.N, r.a_eps, args.verify_runs,
                                        args.seed)
                    audit = (result.estimate / eps, result.ci_halfwidth_95 / eps)
                values = (r.a_eps, r.servers_floor, r.servers_ceil, r.M1, r.M_inf,
                          r.Q_at_floor / eps, r.Q_at_ceil / eps, *audit)
            except MixPoisError as exc:  # per-row error column instead of abort
                errors.append(exc)
                error = f"{type(exc).__name__}: {exc}"
            rows_out.append({"service": spec_label(service), "E": service.mean, "eps": eps,
                             **dict(zip(_STAFF_COLUMNS, values)), "error": error})
    if len(errors) == len(rows_out):
        # a fully failed invocation surfaces its first failure through the exit status
        raise errors[0]
    return rows_out


_TABLE_SERVICES = "exp:0.05,exp:0.5,exp:1,det:0.05,det:0.5,det:1,pareto:0.05,pareto:0.5,pareto:1"


def _cmd_repro(args) -> list[dict]:
    _check_runs("--runs", args.runs, 1, args.seed)
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


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass where argv starts with
    a command word: that command's parser takes the rest, as the subparsers
    action hands it on.  Any other argv, and a command that leaves arguments
    over, takes the full parse, so help, usage and errors stay argparse's."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command; may be called any number of times in one process."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse has printed the usage error or help
        return exc.code
    try:  # before any row is computed, so an unwritable path costs nothing
        out = (contextlib.nullcontext(sys.stdout) if args.output is None
               else open(args.output, "w", newline=""))
    except OSError as exc:
        print(f"error: cannot write --output {args.output}: {exc.strerror}", file=sys.stderr)
        return 2
    with out as stream:
        try:
            _write_rows(stream, args.handler(args))
        except MixPoisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3 if isinstance(exc, ConvergenceError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
