"""Benchmark of the mixpois package.

Runs one workload (see workloads.py) in this process, single-threaded: one
client, each operation starting when the previous one returns.  Operations
run in passes over the workload's fixed operation set, as many passes as
--seconds holds; every output is checked afterwards.  The last line of
stdout is a JSON object with the end-to-end metrics, or with --trace 1 the
per-layer metrics of a traced run (see tracing.py).  README.md describes
the workloads, checks and metrics.

Usage:
    python3 bench/run.py --workload staff-tables --seed 1 --seconds 30 --trace 0
"""

import os

# Pin the BLAS pool before numpy loads: mc_Q does a matrix-vector product and
# a threaded OpenBLAS would make its time depend on the machine's other load.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9   # set-up and reference pairs timed for setup_s
PROBE_REPEATS = 9   # executions of the determinism probe

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "draws_per_s": "1/s",
    "mc_s_to_1pct": "s",
    "peak_rss_mb": "MB",
}


@dataclasses.dataclass
class Record:
    op: object
    rc: int | None
    out: str
    err: str
    wall: float
    problems: list = dataclasses.field(default_factory=list)


def execute(op, cli) -> Record:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.call is not None:
                out.write(op.call())
                rc = 0
            else:
                rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an operation that raises is a failed operation
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    return Record(op, rc, out.getvalue(), err.getvalue(), wall)


def run_passes(build, seed: int, cli, passes: int, gauge) -> list[Record]:
    """Run ``passes`` passes.  Each pass's operation list, and the oracle
    values it needs, is built before its operations run."""
    records = []
    for k in range(passes):
        for op in build(seed, k):
            records.append(execute(op, cli))
            gauge.track(records[-1])
    return records


def to_typical(records) -> None:
    """Replace each wall by the median over the run's executions of the same
    operation, so a slowdown of the shared machine during one pass does not
    move the metrics."""
    walls = {}
    for record in records:
        walls.setdefault(record.op.label, []).append(record.wall)
    typical = {label: statistics.median(w) for label, w in walls.items()}
    for record in records:
        record.wall = typical[record.op.label]


def check(records) -> list[str]:
    """Run every operation's check; return the erratum notes seen."""
    notes = []
    for record in records:
        verdict = record.op.check(record.rc, record.out, record.err)
        record.problems.extend(verdict.problems)
        notes.extend(n for n in verdict.notes if n not in notes)
    return notes


def check_cells(records) -> None:
    """Pooled test of every Monte Carlo cell with an exact value; ``records``
    must be independent executions (distinct seeds)."""
    cells = {}
    for record in records:
        if record.op.exact is not None and not record.problems:
            cells.setdefault(record.op.label, []).append(record)
    for group in cells.values():
        problem = workloads.cell_problem(group[0].op, [first_row(r) for r in group])
        if problem is not None:
            for record in group:
                record.problems.append(problem)


def determinism_probe(seed: int, cli) -> list[Record]:
    """Execute one seeded Monte Carlo operation repeatedly; every CSV must be
    byte-identical to the first.  Each wall is scaled by the slices just
    before and after it, and then replaced by their median."""
    probe = workloads.determinism_probe(seed)
    gauge = speed.SpeedGauge(speed.numpy_kernel)
    runs = []
    for _ in range(PROBE_REPEATS):
        runs.append(execute(probe, cli))
        gauge.track(runs[-1])
        gauge.sample()
    to_typical(runs)
    for record in runs[1:]:
        if record.out != runs[0].out:
            record.problems.append("seeded output differs between identical executions")
    return runs


def first_row(record: Record) -> dict:
    return next(csv.DictReader(io.StringIO(record.out)))


def projected_s_to_1pct(records) -> float:
    """Sum over audit cells of wall * (relative 95% CI / 0.01)^2, pooling each
    cell's passes: the time every audit cell needs to reach a 1% relative CI."""
    cells = {}
    for record in records:
        if record.op.audit and not record.problems:
            row = first_row(record)
            cells.setdefault(record.op.label, []).append(
                (record.wall, float(row["estimate"]), float(row["ci_halfwidth"])))
    total = 0.0
    for runs in cells.values():
        k = len(runs)
        estimate = sum(r[1] for r in runs) / k
        ci = math.sqrt(sum(r[2] ** 2 for r in runs)) / k
        total += sum(r[0] for r in runs) * (ci / estimate / 0.01) ** 2
    return total


def probe_seconds(argv) -> float:
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def setup_seconds(specs) -> float:
    """Set-up time in reference seconds: the median over SETUP_REPEATS fresh
    interpreters of the set-up's wall time over that of ``import numpy`` in a
    fresh interpreter started right after it, times the reference import time.
    An untimed start of each first compiles the bytecode caches."""
    rates, services = specs
    setup = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
             json.dumps({"rates": list(rates), "services": list(services)})]
    reference = [sys.executable, str(BENCH / "setup_probe.py"), "--reference"]
    probe_seconds(setup)
    probe_seconds(reference)
    ratios = [probe_seconds(setup) / probe_seconds(reference) for _ in range(SETUP_REPEATS)]
    return speed.IMPORT_REFERENCE_S * statistics.median(ratios)


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):  # the config layout differs across numpy versions
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps['version']}"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
        "commit": commit, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def op_table(records) -> list[str]:
    counts = collections.Counter(record.op.label for record in records)
    walls = {record.op.label: record.wall for record in records}
    return [f"  {label:<58} {walls[label]:10.5f} s  (n={n})" for label, n in sorted(counts.items())]


def at_reference_speed(metrics: dict[str, float], units: dict[str, str], factor: float):
    scale = {"s": factor, "s/pass": factor, "1/s": 1.0 / factor}
    return {name: value * scale.get(units[name], 1.0) for name, value in metrics.items()}


def end_to_end(records, probe) -> dict[str, float]:
    """End-to-end metrics, all but setup_s, from walls in reference seconds."""
    op_walls = [r.wall for r in records]
    # The probe's executions are one Monte Carlo sample with one (median) wall.
    probe_record = dataclasses.replace(probe[0], problems=[p for r in probe for p in r.problems])
    mc = [r for r in records if r.op.draws] + [probe_record]
    return {
        "ops_per_s": len(records) / sum(op_walls),
        "op_s.p50": statistics.median(op_walls),
        "op_s.p90": statistics.quantiles(op_walls, n=10)[8],
        "draws_per_s": sum(r.op.draws for r in mc) / sum(r.wall for r in mc),
        "mc_s_to_1pct": projected_s_to_1pct(mc),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("staff-tables", "mc-audit",
                                                               "exact-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mixpois" / "cli.py").is_file():
        print(f"error: the package source {SRC / 'mixpois'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mixpois import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mixpois from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    kernel = getattr(speed, workloads.KERNELS[args.workload])
    env = environment(args)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    # --seconds sets the amount of work: whole passes of the workload's
    # nominal length.  A fixed count keeps a run's mix of operations, and so
    # its latency quantiles, independent of the machine's momentary speed.
    if args.trace:
        passes = max(1, round(args.seconds / 2 / workloads.PASS_SECONDS[args.workload]))
        untraced_gauge = speed.SpeedGauge(kernel)
        untraced = run_passes(build, args.seed, cli, passes, untraced_gauge)
        untraced_gauge.sample()
        to_typical(untraced)
        gauge = speed.SpeedGauge(kernel)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records = run_passes(build, args.seed, cli, passes, gauge)
        finally:
            tracer.remove()
        gauge.sample()
        factor = gauge.factor()
        to_typical(records)
        for before, after in zip(untraced, records):
            if before.out != after.out:
                after.problems.append("traced stdout differs from the untraced run")
        overhead = sum(r.wall for r in records) / sum(r.wall for r in untraced) - 1.0
        units = tracing.PER_LAYER
        metrics = at_reference_speed(tracer.metrics(passes, overhead), units, factor)
        print(f"traced {passes} passes; per-layer calls and raw wall seconds per pass:")
        print("\n".join("  " + line for line in tracer.layer_table(passes)))
        records = untraced + records
        probe = determinism_probe(args.seed, cli)
        notes = check(records + probe)
        check_cells(untraced + probe[:1])
    else:
        passes = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
        setup_s = setup_seconds(workloads.SPECS[args.workload])
        gauge = speed.SpeedGauge(kernel)
        records = run_passes(build, args.seed, cli, passes, gauge)
        gauge.sample()
        factor = gauge.factor()
        to_typical(records)
        probe = determinism_probe(args.seed, cli)
        notes = check(records + probe)
        check_cells(records + probe[:1])
        units = END_TO_END
        metrics = {"setup_s": setup_s, **end_to_end(records, probe)}

    everything = records + probe
    failed = [r for r in everything if r.problems]
    print(f"passes: {passes}  timed ops: {len(records)}  speed factor: {factor:.4f}")
    print("median wall per operation, reference seconds:")
    print("\n".join(op_table(records)))
    for note in notes:
        print(note)
    for record in failed:
        print(f"FAILED {record.op.label}: {'; '.join(record.problems)}")
    print(f"fail_frac: {len(failed) / len(everything):.6g} ratio ({len(failed)} of "
          f"{len(everything)} operations)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
