"""Per-layer tracing from outside the package.

Each traced function is replaced, in every ``mixpois`` module that binds
it, by a wrapper that records a span: calls, inclusive time, and self time
(inclusive time minus the time of the traced calls it made).  Counts are
taken at the same boundaries: integrand evaluations of ``integrate``,
function evaluations of ``find_root_increasing``, ``queue_approx`` calls
inside ``solve_staffing``, and scalar draws of each Monte Carlo estimator.
Spans are aggregated in memory as they close; nothing inside the package
changes, and removing the wrappers restores the original bindings.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

from workloads import draws_per_run

# (module, function) pairs wrapped in a timed span, in layer order
SPANS = (
    ("cli", "main"),
    ("staffing", "solve_staffing"),
    ("queue", "queue_approx"),
    ("queue", "theta_star_queue"),
    ("queue", "mc_Q"),
    ("queue", "omega_vector"),
    ("sampling", "mc_P"),
    ("sampling", "is_fast"),
    ("sampling", "is_slow"),
    ("tail_asymptotics", "approx_auto"),
    ("gamma_exact", "log_P_exact"),
    ("gamma_exact", "log_p_exact"),
    ("rates", "rate_function"),
    ("numerics", "find_root_increasing"),
    ("numerics", "integrate"),
)
COUNTED = (("numerics", "log_gamma"),)  # counted only: called too often to time
SAMPLERS = ("queue.mc_Q", "sampling.mc_P", "sampling.is_fast", "sampling.is_slow")
IMPORTANCE = ("sampling.is_fast", "sampling.is_slow")

# per-layer metric -> unit; per-pass figures are totals over the traced
# window divided by the number of passes it ran
PER_LAYER = {
    "numerics.integrate.calls": "count/pass",
    "numerics.integrate.evals": "count/pass",
    "numerics.integrate.evals_per_call": "count",
    "numerics.integrate.s": "s/pass",
    "numerics.find_root_increasing.calls": "count/pass",
    "numerics.find_root_increasing.g_evals": "count/pass",
    "numerics.find_root_increasing.s": "s/pass",
    "numerics.log_gamma.calls": "count/pass",
    "staffing.solve_staffing.s_per_call": "s",
    "staffing.q_evals_per_solve": "count",
    "queue.queue_approx.calls": "count/pass",
    "queue.queue_approx.s": "s/pass",
    "queue.theta_star_queue.s": "s/pass",
    "queue.mc_Q.draws_per_s": "1/s",
    "queue.omega_vector.s": "s/pass",
    "sampling.mc_P.draws_per_s": "1/s",
    "sampling.is_fast.draws_per_s": "1/s",
    "sampling.is_slow.draws_per_s": "1/s",
    "sampling.ess_frac": "ratio",
    "sampling.hit_frac": "ratio",
    "rates.rate_function.calls": "count/pass",
    "rates.rate_function.s": "s/pass",
    "gamma_exact.log_P_exact.s": "s/pass",
    "gamma_exact.log_p_exact.s": "s/pass",
    "tail_asymptotics.approx_auto.s": "s/pass",
    "cli.self_s": "s/pass",
    "trace_overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Install with :meth:`install`, run the traced work, then :meth:`remove`."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(lambda: [0])  # one-element boxes: cheap to bump
        self.draws = defaultdict(int)
        self.ess_frac = []  # estimate^2 / second moment, per importance-sampling call
        self.hit_frac = []  # estimate, the fraction of runs that hit, per crude call
        self._stack = []    # open spans: [layer, time of traced children]
        self._bindings = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "mixpois" or name.startswith("mixpois.")]
        targets = [(m, f, self._span) for m, f in SPANS] + [(m, f, self._counter) for m, f in COUNTED]
        for module_name, func_name, make in targets:
            original = getattr(sys.modules[f"mixpois.{module_name}"], func_name)
            wrapper = make(f"{module_name}.{func_name}", original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._bindings.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def remove(self) -> None:
        for module, func_name, original in reversed(self._bindings):
            setattr(module, func_name, original)
        self._bindings.clear()

    def _counter(self, layer, fn):
        box = self.counts[f"{layer}.calls"]

        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_calls_of(self, key: str, f):
        # integrands run millions of times: keep this wrapper minimal
        box = self.counts[key]

        def counted(x):
            box[0] += 1
            return f(x)

        return counted

    def _span(self, layer, fn):
        stack, calls, seconds, self_seconds = self._stack, self.calls, self.seconds, self.self_seconds
        signature = inspect.signature(fn)
        clock = time.perf_counter
        counted_arg = {"numerics.integrate": "numerics.integrate.evals",
                       "numerics.find_root_increasing": "numerics.find_root_increasing.g_evals"}.get(layer)

        def traced(*args, **kwargs):
            if counted_arg is not None:
                args = (self._count_calls_of(counted_arg, args[0]),) + args[1:]
            if layer == "queue.queue_approx" and any(s[0] == "staffing.solve_staffing" for s in stack):
                self.counts["staffing.q_evals_in_solve"][0] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[layer] += 1
                seconds[layer] += elapsed
                self_seconds[layer] += elapsed - frame[1]
            if layer in SAMPLERS:
                self._record_sampler(layer, signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record_sampler(self, layer, arguments, result) -> None:
        runs, N = arguments["runs"], arguments["N"]
        if layer == "queue.mc_Q":
            self.draws[layer] += runs * (N + 1)
        else:
            dist = arguments["dist"].label()
            self.draws[layer] += runs * draws_per_run(dist, arguments["alpha"], N)
        if layer in IMPORTANCE:
            if result.second_moment > 0.0:
                self.ess_frac.append(result.estimate**2 / result.second_moment)
        else:
            self.hit_frac.append(result.estimate)

    def metrics(self, passes: int, overhead: float) -> dict[str, float]:
        c, s = self.calls, self.seconds
        n = defaultdict(int, {key: box[0] for key, box in self.counts.items()})
        out = {
            "numerics.integrate.calls": c["numerics.integrate"] / passes,
            "numerics.integrate.evals": n["numerics.integrate.evals"] / passes,
            "numerics.integrate.evals_per_call": _ratio(n["numerics.integrate.evals"],
                                                        c["numerics.integrate"]),
            "numerics.integrate.s": s["numerics.integrate"] / passes,
            "numerics.find_root_increasing.calls": c["numerics.find_root_increasing"] / passes,
            "numerics.find_root_increasing.g_evals":
                n["numerics.find_root_increasing.g_evals"] / passes,
            "numerics.find_root_increasing.s": s["numerics.find_root_increasing"] / passes,
            "numerics.log_gamma.calls": n["numerics.log_gamma.calls"] / passes,
            "staffing.solve_staffing.s_per_call": _ratio(s["staffing.solve_staffing"],
                                                         c["staffing.solve_staffing"]),
            "staffing.q_evals_per_solve": _ratio(n["staffing.q_evals_in_solve"],
                                                 c["staffing.solve_staffing"]),
            "queue.queue_approx.calls": c["queue.queue_approx"] / passes,
            "queue.queue_approx.s": s["queue.queue_approx"] / passes,
            "queue.theta_star_queue.s": s["queue.theta_star_queue"] / passes,
            "queue.omega_vector.s": s["queue.omega_vector"] / passes,
            "sampling.ess_frac": statistics.median(self.ess_frac) if self.ess_frac else 0.0,
            "sampling.hit_frac": statistics.median(self.hit_frac) if self.hit_frac else 0.0,
            "rates.rate_function.calls": c["rates.rate_function"] / passes,
            "rates.rate_function.s": s["rates.rate_function"] / passes,
            "gamma_exact.log_P_exact.s": s["gamma_exact.log_P_exact"] / passes,
            "gamma_exact.log_p_exact.s": s["gamma_exact.log_p_exact"] / passes,
            "tail_asymptotics.approx_auto.s": s["tail_asymptotics.approx_auto"] / passes,
            "cli.self_s": self.self_seconds["cli.main"] / passes,
            "trace_overhead": overhead,
        }
        for layer in SAMPLERS:
            out[f"{layer}.draws_per_s"] = _ratio(self.draws[layer], s[layer])
        return {name: out[name] for name in PER_LAYER}

    def layer_table(self, passes: int) -> list[str]:
        """Calls, inclusive and self seconds per pass for every traced layer."""
        lines = []
        for module_name, func_name in SPANS:
            layer = f"{module_name}.{func_name}"
            if self.calls[layer]:
                lines.append(f"{layer:<38} calls/pass {self.calls[layer] / passes:>12.1f}  "
                             f"s/pass {self.seconds[layer] / passes:10.4f}  "
                             f"self s/pass {self.self_seconds[layer] / passes:10.4f}")
        return lines
