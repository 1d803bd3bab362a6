import argparse
import contextlib
import csv
import io
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SUBPROCESS_ENV
from mixpois import cli, queue, sampling
from mixpois.cli import build_parser, main
from mixpois.gamma_exact import GammaCase, P_exact, log_P_exact, p_exact
from mixpois.rates import DeterministicRate, GammaRate, PoissonRate, parse_rate, rate_function
from reference import poisson_log_pmf, pooled_poisson_tail


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestApprox:
    def test_fast_point_row(self, capsys):
        code, out, _ = run_cli(
            ["approx", "--dist", "exp:2.5", "--alpha", "5", "--a", "1", "--N", "40",
             "--quantity", "p"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["regime"] == "FastExact"
        assert rows[0]["validity"] == "Valid"
        assert float(rows[0]["log_value"]) < 0.0
        assert float(rows[0]["value"]) == pytest.approx(math.exp(float(rows[0]["log_value"])))

    def test_log_only_band(self, capsys):
        code, out, _ = run_cli(
            ["approx", "--dist", "exp:2.5", "--alpha", "1.5", "--a", "1", "--N", "40"],
            capsys,
        )
        rows = parse_csv(out)
        assert rows[0]["regime"] == "LogOnly"
        assert rows[0]["validity"] == "OutsideProvenRange"

    def test_validation_exit_code(self, capsys):
        code, _, err = run_cli(
            ["approx", "--dist", "exp:2.5", "--alpha", "5", "--a", "0.1", "--N", "40"],
            capsys,
        )
        assert code == 2
        assert "error:" in err and "mean" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(
            ["approx", "--dist", "weird:1", "--alpha", "5", "--a", "1", "--N", "40"],
            capsys,
        )
        assert code == 2
        assert "weird" in err


class TestExactGamma:
    def test_row(self, capsys):
        code, out, _ = run_cli(
            ["exact-gamma", "--dist", "exp:2.5", "--alpha", "0.2", "--a", "1", "--N", "160"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["p_exact"]) > 0.0
        assert float(row["ratio"]) == pytest.approx(1.0, abs=0.05)

    def test_needs_gamma_family(self, capsys):
        code, _, err = run_cli(
            ["exact-gamma", "--dist", "pois:2", "--alpha", "1", "--a", "1", "--N", "10"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: --dist: exact-gamma needs")

    def test_general_shape_leaves_series_blank(self, capsys):
        code, out, _ = run_cli(
            ["exact-gamma", "--dist", "gamma:2,2", "--alpha", "1", "--a", "1", "--N", "10"],
            capsys,
        )
        row = parse_csv(out)[0]
        assert row["p_asym"] == ""
        assert float(row["p_exact"]) > 0.0

    def test_subnormal_pooled_shape(self, capsys):
        # log Gamma of the pooled shape 1.5e-323 is finite; mpmath -746.5195134630611
        code, out, _ = run_cli(
            ["exact-gamma", "--dist", "gamma:5e-324,1", "--alpha", "1", "--a", "1", "--N", "3"],
            capsys,
        )
        assert code == 0
        assert parse_csv(out)[0]["log_p_exact"] == "-746.519513463"

    def test_count_above_termwise_range(self, capsys):
        # count 3e6 below the pooled shape 8e18: mpmath -216403.700324417889
        code, out, _ = run_cli(
            ["exact-gamma", "--dist", "exp:1", "--alpha", "3", "--a", "1.5", "--N", "2e6"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["log_p_exact"] == "-216403.700324"
        assert float(row["ratio"]) == pytest.approx(1.0, abs=1e-6)


class TestSimulate:
    def test_deterministic_output(self, capsys):
        args = ["simulate", "--method", "is-slow", "--dist", "exp:2.5", "--alpha", "0.5",
                "--a", "2", "--N", "25", "--runs", "20000", "--seed", "7"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        row = parse_csv(out1)[0]
        assert row["method"] == "is-slow"
        assert int(row["runs"]) == 20000
        assert float(row["estimate"]) > 0.0

    def test_methods_agree(self, capsys):
        base = ["--dist", "exp:1", "--alpha", "2", "--a", "2", "--N", "6",
                "--runs", "200000", "--seed", "3"]
        _, out_mc, _ = run_cli(["simulate", "--method", "mc", *base], capsys)
        _, out_is, _ = run_cli(["simulate", "--method", "is-fast", *base], capsys)
        mc = parse_csv(out_mc)[0]
        is_ = parse_csv(out_is)[0]
        joint = math.hypot(float(mc["ci_halfwidth"]), float(is_["ci_halfwidth"]))
        assert abs(float(mc["estimate"]) - float(is_["estimate"])) < 3.0 * joint


# inputs the CLI used to accept, or to fail on without naming the problem
REJECTED_INPUTS = {
    "is-slow alpha": (["simulate", "--method", "is-slow", "--dist", "exp:1", "--alpha", "-0.5",
                       "--a", "2", "--N", "5", "--runs", "10"], 2, "alpha and N must be positive"),
    "is-fast N": (["simulate", "--method", "is-fast", "--dist", "exp:1", "--alpha", "2",
                   "--a", "2", "--N", "-1", "--runs", "10"], 2, "alpha and N must be positive"),
    "mc point": (["simulate", "--method", "mc", "--dist", "exp:1", "--alpha", "2", "--a", "2",
                  "--N", "4", "--runs", "1000", "--quantity", "p"], 2, "only the tail"),
    "is-slow point": (["simulate", "--method", "is-slow", "--dist", "exp:1", "--alpha", "0.5",
                       "--a", "2", "--N", "4", "--runs", "1000", "--quantity", "p"], 2,
                      "only the tail"),
    "approx N negative": (["approx", "--dist", "exp:2.5", "--alpha", "0.7", "--a", "1",
                           "--N", "-4"], 2, "N must be positive"),
    "approx N zero": (["approx", "--dist", "exp:2.5", "--alpha", "5", "--a", "1", "--N", "0"], 2,
                      "N must be positive"),
    "approx N zero det": (["approx", "--dist", "det:2", "--alpha", "1.5", "--a", "1e308",
                           "--N", "0"], 2, "N must be positive"),
    "exact-gamma shape": (["exact-gamma", "--dist", "exp:2.5", "--alpha", "3", "--a", "5",
                           "--N", "1e308"], 2, "must be finite"),
    # N^alpha * beta underflows to 0 and used to reach log 0 ("math domain error")
    "exact-gamma shape underflow": (["exact-gamma", "--dist", "exp:2.5", "--alpha", "5",
                                     "--a", "1", "--N", "1e-300"], 2, "must be positive"),
    "exact-gamma log-pmf": (["exact-gamma", "--dist", "gamma:2,1", "--alpha", "1", "--a", "1e300",
                             "--N", "1e8"], 3, "log-pmf"),
    # rounding in terms of about 2.5e22 gave log p = 4.6e6 and p = inf (exit 0)
    "exact-gamma log-pmf above 0": (["exact-gamma", "--dist", "gamma:1e20,1", "--alpha", "3",
                                     "--a", "1e20", "--N", "5"], 3, "log-pmf at k=5e+20 is"),
    # lam (1 + a) overflowed in the intermediate formula, and log 0 raised a
    # bare "math domain error" (exit 1)
    "exact-gamma intermediate overflow": (["exact-gamma", "--dist", "exp:1e308", "--alpha", "1",
                                           "--a", "3", "--N", "100"], 2,
                                          "lam (1 + a) lies beyond the float range"),
    # 2 pi N a (a + 1) overflowed, and p_asym printed 0 with log -inf (exit 0)
    "exact-gamma intermediate spread overflow": (["exact-gamma", "--dist", "exp:2.5", "--alpha",
                                                  "1", "--a", "1e300", "--N", "100"], 2,
                                                 "2 pi N a (a + 1) or lam (1 + a) lies beyond "
                                                 "the float range"),
    "exact-gamma series": (["exact-gamma", "--dist", "exp:1", "--alpha", "1.4",
                            "--a", "1.3407807929942597e+154", "--N", "1"], 3, "overflows"),
    "simulate infinite count": (["simulate", "--method", "mc", "--dist", "det:1", "--alpha", "1",
                                 "--a", "8.98846567431158e+307", "--N", "2", "--runs", "1"], 2,
                                "must be finite"),
    # the compound count's tilt, 459.8, lies beyond the reach of double
    # precision; the value used to evaluate to log nan (exit 3)
    "approx compound overflow": (["approx", "--dist", "exp:1e200", "--alpha", "1", "--a", "1",
                                  "--N", "1"], 2, "needs a tilt above"),
    "approx prefactor underflow": (["approx", "--dist", "gamma:1.570442563591821e-298,2",
                                    "--alpha", "0.25", "--a", "1.570442563591821e-298",
                                    "--N", "1"], 3, "prefactor"),
    # CGF'' = a^2/beta overflows, and the prefactor used to be 0 ("math domain error")
    "approx prefactor overflow": (["approx", "--dist", "exp:2.5", "--alpha", "0.2", "--a", "1e200",
                                   "--N", "100"], 3, "prefactor"),
    # the level lies one ulp above the mean level 3.3519519824856493e+153,
    # within the level solve's stop of 1e-14 a, so the tilt is 0.  An absolute
    # stop found the tilt 4.5e-13, where the two-point spread squared
    # overflowed in the curvature ("beyond the float range"), and before that
    # the composite rule's error blamed the tilt
    "queue-approx two-point spread": (["queue-approx", "--dist",
                                       "twopoint:0.5,1,1.3407807929942597e+154", "--service",
                                       "det:0.5", "--N", "1", "--a", "3.35195198248565e+153"], 2,
                                      "within rounding of the mean level"),
    "queue-approx tiny service mean": (["queue-approx", "--dist", "det:1",
                                        "--service", "det:5e-324", "--N", "1", "--a", "1"], 2,
                                       "needs a tilt above"),
    # the MGF wall of these rates lies at a tilt of 460.5, beyond the reach of
    # double precision, and the error blamed the MGF domain
    "queue-approx wall beyond the tilt limit": (["queue-approx", "--dist", "exp:1e200",
                                                 "--service", "exp:1", "--N", "50",
                                                 "--a", "1e160"], 2, "needs a tilt above"),
    # numpy's binomial sampler raised a bare OverflowError above 2^63 - 1 slots
    "simulate two-point slots above the binomial limit": (
        ["simulate", "--method", "mc", "--dist", "twopoint:0.75,1,5", "--alpha", "30",
         "--a", "3", "--N", "100", "--runs", "1"], 2,
        "N^alpha = 1e+60 two-point slots exceed the binomial sampler's limit"),
    "simulate pooled Poisson mean": (["simulate", "--method", "mc", "--dist", "pois:1e10",
                                      "--alpha", "9", "--a", "2", "--N", "100", "--runs", "1"],
                                     2, "Poisson count mean"),
    "queue-sim run above a chunk": (["queue-sim", "--dist", "pois:1", "--service", "exp:1",
                                     "--N", "1000000000", "--a", "2", "--runs", "1"], 2,
                                    "per-run cap"),
    "queue-sim arrivals above a chunk": (["queue-sim", "--dist", "pois:0.001", "--service",
                                          "exp:1", "--N", "1000000000", "--a", "2", "--runs",
                                          "1"], 2, "per-run cap"),
    # numpy refused the mean with a bare "lam value too large"
    "queue-sim Poisson mean": (["queue-sim", "--dist", "pois:1e19", "--service", "exp:1",
                                "--N", "10", "--a", "1e20", "--runs", "1"], 2,
                               "Poisson count mean"),
    # N^alpha = 1e-750 underflows to 0: the pooled gamma had shape 0, and the
    # estimate printed nan (exit 0)
    "is-fast N^alpha underflow": (["simulate", "--method", "is-fast", "--dist", "exp:2.5",
                                   "--alpha", "2.5", "--a", "3", "--N", "1e-300", "--runs",
                                   "1000"], 2, "N^alpha underflows to 0"),
    # N*a = 3e-300 snapped to the count 0, and every run hit: estimate 1 with
    # CI 0 (exit 0)
    "is-slow count threshold snapping to 0": (["simulate", "--method", "is-slow", "--dist",
                                               "exp:2.5", "--alpha", "0.5", "--a", "3", "--N",
                                               "1e-300", "--runs", "1000"], 2,
                                              "N*a = 3e-300 is positive but within 1e-09 of 0"),
    "simulate N^alpha overflow": (["simulate", "--method", "mc", "--dist", "exp:1", "--alpha",
                                   "400", "--a", "2", "--N", "10", "--runs", "1"], 2,
                                  "exceeds the float range"),
    "simulate pooled gamma shape": (["simulate", "--method", "mc", "--dist", "gamma:1e10,1",
                                     "--alpha", "300", "--a", "2", "--N", "10", "--runs", "1"],
                                    2, "pooled gamma shape"),
    "is-fast count mean": (["simulate", "--method", "is-fast", "--dist", "exp:1e-20",
                            "--alpha", "2", "--a", "1e21", "--N", "10", "--runs", "1"], 2,
                           "Poisson count mean"),
    "staff negative verify runs": (["staff", "--dist", "pois:2", "--service", "exp:0.5",
                                    "--N", "100", "--eps", "1e-3", "--verify-runs", "-5"], 2,
                                   "--verify-runs must be >= 0"),
    "repro negative runs": (["repro", "--runs", "-3"], 2, "--runs must be >= 1"),
    "simulate negative seed": (["simulate", "--method", "mc", "--dist", "exp:1", "--alpha", "2",
                                "--a", "2", "--N", "4", "--runs", "10", "--seed", "-1"], 2,
                               "seed must lie in [0, 2^64)"),
    "queue-sim seed above 64 bits": (["queue-sim", "--dist", "pois:2", "--service", "exp:0.5",
                                      "--N", "10", "--a", "1", "--runs", "10",
                                      "--seed", str(2**64)], 2, "seed must lie in [0, 2^64)"),
    "staff negative seed": (["staff", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100",
                             "--eps", "1e-3", "--seed", "-1"], 2, "seed must lie in [0, 2^64)"),
    "repro seed above 64 bits": (["repro", "--seed", str(2**64)], 2,
                                 "seed must lie in [0, 2^64)"),
    # Q above the float range and the tilted variance e^(2 theta) beyond it
    # raised OverflowError inside the staffing tilt search.  Under the exact
    # one-node rule of deterministic service the tilt resolves to about
    # 5e-26, and a_eps lies within 1e-25 of the mean load.  The exponential
    # service twin stops at a level at the composite rule's rounding error
    # above the mean load, where Q is noise: the rarity boundary is checked
    # before the band, so it too is a bad input (it exited 3, "|Q - eps|")
    "staff Q above the float range": (["staff", "--dist", "gamma:3.4676934119325283e+50,1",
                                       "--service", "det:1", "--N", "1", "--eps", "0.5"], 2,
                                      "met already at the rarity boundary"),
    "staff Q above the float range, exponential service": (
        ["staff", "--dist", "gamma:3.4676934119325283e+50,1", "--service", "exp:1", "--N", "1",
         "--eps", "0.5"], 2, "met already at the rarity boundary"),
    # the level a(theta) jumps from 0 past the float range within one tilt
    # step, so the search stops where Q exceeds 1 (it exited 3, "|Q - eps| =
    # 1.117e+143")
    "staff Q above 1 at the stopping tilt": (["staff", "--dist", "pois:1e-300", "--service",
                                              "exp:1e-300", "--N", "100", "--eps", "1e-3"], 2,
                                             "beyond double precision"),
    # Q overflows at the tilt the search stops at, and the error read
    # "|Q - eps| = inf" (exit 3).  The search bisects to adjacent floats of
    # log theta and stops at the end nearer the band, whose level lies within
    # the rule's rounding error of the mean load, below the rarity boundary,
    # as in the two rows above (it read "lies beyond the float range" while
    # the search stopped on a bracket 1e-12 wide)
    "staff Q overflows at the stopping tilt": (["staff", "--dist", "gamma:1e305,1",
                                                "--service", "exp:1", "--N", "100",
                                                "--eps", "1e-3"], 2,
                                               "met already at the rarity boundary"),
    # staffing and the occupancy tilt search share one tilt cap and its error;
    # this row exited 3 with "staffing tilt search found no upper bracket"
    "staff tilt above 354": (["staff", "--dist", "exp:1.6190082276456837e+191", "--service",
                              "det:93.95691743698264", "--N", "50", "--eps", "0.18"], 2,
                             "needs a tilt above"),
    # the level a(theta) and sigma^2 underflow to 0, and log sigma^2 raised a
    # bare "math domain error"
    "staff level underflow": (["staff", "--dist", "det:1e-300", "--service", "exp:1e-300",
                               "--N", "100", "--eps", "1e-3"], 2, "needs a tilt above 350"),
    # the stationary mean M_inf printed as inf (exit 0)
    "staff stationary mean beyond the float range": (
        ["staff", "--dist", "pois:2", "--service", "exp:1e308", "--N", "100", "--eps", "1e-3"], 2,
        "N * mean rate * mean service = 100 * 2 * 1e+308 lies beyond the float range"),
    "staff MGF wall": (["staff", "--dist", "exp:0.5", "--service", "pareto:0.5", "--N", "1",
                        "--eps", "1e-30"], 2,
                       "tilts are confined to (0, 0.405465] by the MGF domain"),
    # the tilt cap log1p(lam - 1e-9) is 0 here, and its log used to raise a
    # bare "math domain error"; below lam = 1e-9 the cap is negative, and
    # queue-approx printed the empty bracket [0, -2.5e-10]
    "staff MGF domain within the gap": (["staff", "--dist", "exp:1e-9", "--service", "exp:1",
                                         "--N", "100", "--eps", "1e-3"], 2,
                                        "finite only below lam = 1e-09"),
    "queue-approx MGF domain within the gap": (["queue-approx", "--dist", "exp:5e-10",
                                                "--service", "exp:1", "--N", "100",
                                                "--a", "1e10"], 2,
                                               "finite only below lam = 5e-10"),
    # the two-point spread squared overflows in the curvature, so sigma^2 is
    # infinite, or NaN, at every tilt, and Q is 0 where the level lies within
    # rounding of the mean load: eps is met below the rarity boundary.  The
    # staffing search in log theta ran down to theta = 0, where log(1 -
    # e^-theta) raised a bare "math domain error", and then down to the
    # smallest normal tilt ("is not reached at any tilt down to")
    "staff spread overflows at the mean load": (
        ["staff", "--dist", "twopoint:0.35372647044362493,5.061931154463175e-09,1e+200",
         "--service", "det:1000000.0", "--N", "10", "--eps", "0.5"], 2,
        "met already at the rarity boundary"),
    # -theta*N*a + N*CGF evaluated to log nan (exit 3) once N*a overflowed
    "approx count beyond the float range": (["approx", "--dist", "det:1", "--alpha", "1",
                                             "--a", "1e10", "--N", "1e300"], 2,
                                            "must be finite"),
    "approx fast count beyond the float range": (["approx", "--dist", "det:1", "--alpha", "5",
                                                  "--a", "1e10", "--N", "1e300"], 2,
                                                 "must be finite"),
    "queue-approx count beyond the float range": (["queue-approx", "--dist", "det:1",
                                                   "--service", "exp:1", "--N", "1e300",
                                                   "--a", "1e10"], 2, "must be finite"),
    # N*a = 1e308 is finite, but theta*N*a at the tilt log 100 is not, and
    # the sharp approximation's log q is -inf: a Q below the float range,
    # not a failure to converge (it exited 3, "overflows")
    "queue-approx log q beyond the float range": (["queue-approx", "--dist", "det:1",
                                                   "--service", "exp:1", "--N", "1e306",
                                                   "--a", "100"], 2,
                                                  "log q = -inf lies beyond the float range"),
    # the level lies 1e-13 above the mean load 1, within the level solve's
    # stop of it, so the tilt is 0, where log(1 - e^-theta) raised a bare
    # "math domain error" (exit 1)
    "queue-approx level within rounding of the mean": (["queue-approx", "--dist", "pois:2",
                                                        "--service", "det:0.5", "--N", "100",
                                                        "--a", "1.0000000000001"], 2,
                                                       "within rounding of the mean level 1.0"),
    "approx level within rounding of the mean": (["approx", "--dist", "pois:2", "--alpha", "1",
                                                  "--a", "2.0000000000001", "--N", "100"], 2,
                                                 "within rounding of the mean level 2.0"),
    # an unwritable --output raised a traceback once every row was computed
    "output in a missing directory": (["approx", "--dist", "exp:2.5", "--alpha", "5", "--a", "3",
                                       "--N", "100", "--output", "/nonexistent/x.csv"], 2,
                                      "cannot write --output /nonexistent/x.csv"),
    "output is a directory": (["staff", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100",
                               "--eps", "1e-3", "--output", "."], 2, "cannot write --output ."),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,status,message", REJECTED_INPUTS.values(),
                         ids=REJECTED_INPUTS.keys())
def test_rejected_input_is_named(capsys, argv, status, message):
    code, out, err = run_cli(argv, capsys)
    assert code == status
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_two_point_slots_pool_into_one_draw(capsys):
    # 3.6e9 two-point slots per run are one binomial count, not a run above a chunk
    code, out, err = run_cli(["simulate", "--method", "mc", "--dist", "twopoint:0.75,1,5",
                              "--alpha", "2", "--a", "2", "--N", "60000", "--runs", "1"], capsys)
    assert (code, err) == (0, "")
    assert len(parse_csv(out)) == 1


def test_occupancy_count_has_no_poisson_mean_limit(capsys):
    # mc_Q draws each run's hit from the k-th arrival epoch, not a Poisson
    # count, so numpy's limit on a Poisson mean does not apply: the rate sum
    # of about 6e20 lies far below k = 1e22, and no run hits
    code, out, err = run_cli(["queue-sim", "--dist", "exp:1e-20", "--service", "exp:1",
                              "--N", "10", "--a", "1e21", "--runs", "1"], capsys)
    assert (code, err) == (0, "")
    assert float(parse_csv(out)[0]["estimate"]) == 0.0


def test_overflow_count_has_no_poisson_mean_limit(capsys):
    # the overflow estimators decide each run's hit from the k-th arrival
    # epoch as well: a per-run count mean of about 1.4e21, past numpy's
    # limit, lies far above k = 100, and every run hits
    code, out, err = run_cli(["simulate", "--method", "mc", "--dist", "exp:1e-19", "--alpha", "1",
                              "--a", "1", "--N", "100", "--runs", "1000", "--seed", "1"], capsys)
    assert (code, err) == (0, "")
    assert float(parse_csv(out)[0]["estimate"]) == 1.0


FINITE = st.one_of(st.floats(0.01, 100.0), st.floats(allow_nan=False, allow_infinity=False))


def _spec(kinds):
    """Specification text of a law of one of ``kinds`` ({kind: arity}) with
    finite parameters, valid or not."""
    return st.sampled_from(sorted(kinds.items())).flatmap(
        lambda kind: st.lists(FINITE, min_size=kind[1], max_size=kind[1]).map(
            lambda values: f"{kind[0]}:" + ",".join(map(repr, values))))


SEEDS = st.one_of(st.integers(0, 10), st.integers(-2**65, 2**65))
RATE_SPECS = _spec({"exp": 1, "gamma": 2, "pois": 1, "twopoint": 3, "det": 1})
GAMMA_SPECS = _spec({"exp": 1, "gamma": 2})
SERVICE_SPECS = _spec({"exp": 1, "det": 1, "pareto": 1})
# N * a is an integer for exact-gamma's point probability; draw such pairs too
N_AND_A = st.one_of(
    st.tuples(FINITE, FINITE),
    st.integers(1, 10**6).flatmap(lambda n: st.tuples(
        st.just(float(n)), st.integers(0, 10**7).map(lambda k: k / n))),
)


def _assert_contract(argv):
    # options are passed as --name=value, so that argparse takes a negative
    # number in exponent notation as a value rather than as an option
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 2, 3)
    assert "nan" not in out.getvalue()


class TestErrorContractProperty:
    """Any finite input exits 0, 2 or 3, raises nothing and prints no NaN.

    Derandomized: every run checks the same cases, so a result depends on the
    code alone; to search wider, raise max_examples or turn derandomize off.
    """

    @given(dist=RATE_SPECS, alpha=FINITE, n_and_a=N_AND_A, quantity=st.sampled_from("pP"))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_approx(self, dist, alpha, n_and_a, quantity):
        N, a = n_and_a
        _assert_contract(["approx", f"--dist={dist}", f"--alpha={alpha!r}", f"--a={a!r}",
                          f"--N={N!r}", f"--quantity={quantity}"])

    @given(dist=GAMMA_SPECS, alpha=FINITE, n_and_a=N_AND_A)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exact_gamma(self, dist, alpha, n_and_a):
        N, a = n_and_a
        _assert_contract(["exact-gamma", f"--dist={dist}", f"--alpha={alpha!r}", f"--a={a!r}",
                          f"--N={N!r}"])

    @given(dist=RATE_SPECS, service=SERVICE_SPECS, N=FINITE, a=FINITE)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_queue_approx(self, dist, service, N, a):
        _assert_contract(["queue-approx", f"--dist={dist}", f"--service={service}",
                          f"--N={N!r}", f"--a={a!r}"])

    # each of at most 20 runs draws one pooled slot sum and one count, so a
    # case never allocates much memory
    @given(method=st.sampled_from(["mc", "is-fast", "is-slow"]), dist=RATE_SPECS,
           alpha=FINITE, a=FINITE, N=st.floats(-50.0, 50.0),
           runs=st.integers(1, 20), quantity=st.sampled_from("pP"))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_simulate(self, method, dist, alpha, a, N, runs, quantity):
        _assert_contract(["simulate", f"--method={method}", f"--dist={dist}",
                          f"--alpha={alpha!r}", f"--a={a!r}", f"--N={N!r}", f"--runs={runs}",
                          f"--quantity={quantity}"])

    # N slot rates are drawn per run: at most 30 slots and 20 runs
    @given(dist=RATE_SPECS, service=SERVICE_SPECS, N=st.integers(-2, 30), a=FINITE,
           runs=st.integers(-2, 20), seed=SEEDS)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_queue_sim(self, dist, service, N, a, runs, seed):
        _assert_contract(["queue-sim", f"--dist={dist}", f"--service={service}", f"--N={N}",
                          f"--a={a!r}", f"--runs={runs}", f"--seed={seed}"])

    # at most 50 slots, two services, two levels and 20 audit runs per row;
    # eps is drawn in range part of the time, so that rows get solved
    @given(dist=RATE_SPECS, services=st.lists(SERVICE_SPECS, min_size=1, max_size=2),
           N=st.integers(-2, 50),
           eps=st.lists(st.one_of(st.floats(1e-12, 0.5), FINITE), min_size=1, max_size=2),
           verify_runs=st.integers(-2, 20), seed=SEEDS)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_staff(self, dist, services, N, eps, verify_runs, seed):
        _assert_contract(["staff", f"--dist={dist}", f"--service={','.join(services)}",
                          f"--N={N}", f"--eps={','.join(map(repr, eps))}",
                          f"--verify-runs={verify_runs}", f"--seed={seed}"])


NON_FINITE_INPUTS = {
    "approx alpha": ["approx", "--dist", "exp:2.5", "--alpha", "nan", "--a", "1", "--N", "40"],
    "approx N": ["approx", "--dist", "exp:2.5", "--alpha", "5", "--a", "1", "--N", "nan"],
    "approx a": ["approx", "--dist", "exp:2.5", "--alpha", "5", "--a", "inf", "--N", "40"],
    "approx rate law": ["approx", "--dist", "exp:inf", "--alpha", "5", "--a", "1", "--N", "40"],
    "exact-gamma alpha": ["exact-gamma", "--dist", "exp:2.5", "--alpha", "inf", "--a", "1",
                          "--N", "40"],
    "simulate N": ["simulate", "--method", "is-slow", "--dist", "exp:2.5", "--alpha", "0.5",
                   "--a", "2", "--N", "inf", "--runs", "10"],
    "simulate alpha": ["simulate", "--method", "mc", "--dist", "exp:2.5", "--alpha", "nan",
                       "--a", "2", "--N", "8", "--runs", "10"],
    "simulate rate law": ["simulate", "--method", "mc", "--dist", "twopoint:0.5,1,inf",
                          "--alpha", "0.5", "--a", "2", "--N", "8", "--runs", "10"],
    "queue-sim a": ["queue-sim", "--dist", "pois:2", "--service", "exp:0.5", "--N", "10",
                    "--a", "nan", "--runs", "10"],
    "staff eps": ["staff", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100",
                  "--eps", "1e-3,nan"],
    # staffing's band is fixed relative to eps: --tol is no option
    "staff tol": ["staff", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100",
                  "--eps", "1e-3", "--tol", "1e-9"],
    "approx malformed alpha": ["approx", "--dist", "exp:2.5", "--alpha", "x", "--a", "1",
                               "--N", "40"],
}


@pytest.mark.parametrize("argv", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(("error", "usage:"))


class TestQueueCommands:
    def test_queue_approx_row(self, capsys):
        code, out, _ = run_cli(
            ["queue-approx", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100",
             "--a", "1.2602"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["Q"]) == pytest.approx(1e-3, rel=2e-3)
        assert float(row["log_Q"]) == pytest.approx(math.log(1e-3), rel=1e-3)
        assert float(row["sigma2"]) > float(row["a"])

    # where the order-10 check rule is off by 1.5e-9 and 2.2e-6, the rule of
    # order 20 on halved panels settles the check: exit 0, not 3
    @pytest.mark.parametrize("argv", [
        "--dist twopoint:0.385462,96.73,174.408 --service exp:0.0307138 --N 30 --a 21.888745",
        "--dist twopoint:0.298245,500.635,783.518 --service pareto:1.22193 --N 10 --a 2672.3991",
    ], ids=["exp", "pareto"])
    def test_queue_approx_check_rule_false_alarm_exits_0(self, capsys, argv):
        code, out, err = run_cli(["queue-approx", *argv.split()], capsys)
        assert (code, err) == (0, "")
        assert len(parse_csv(out)) == 1

    @pytest.mark.parametrize("N,a", [("100", "0.87"), ("0.5", "1.3")])
    def test_queue_approx_above_one_exits_2(self, capsys, N, a):
        # just above the mean load 0.8647, or at a tiny N, the formula exceeds 1
        code, out, err = run_cli(
            ["queue-approx", "--dist", "pois:2", "--service", "exp:0.5", "--N", N, "--a", a],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: the sharp approximation at a={float(a)}, N={float(N)}")
        assert "log Q = " in err and "> 0" in err

    @pytest.mark.parametrize("N,a", [("100", "inf"), ("inf", "1.3"), ("nan", "1.3")])
    def test_queue_approx_non_finite_input_exits_2(self, capsys, N, a):
        code, out, err = run_cli(
            ["queue-approx", "--dist", "pois:2", "--service", "exp:0.5", "--N", N, "--a", a],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_queue_sim(self, capsys):
        code, out, _ = run_cli(
            ["queue-sim", "--dist", "pois:2", "--service", "exp:0.5", "--N", "50",
             "--a", "1.0", "--runs", "50000", "--seed", "5"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert 0.0 < float(row["estimate"]) < 1.0

    def test_omega(self, capsys):
        code, out, _ = run_cli(["omega", "--service", "det:0.5", "--N", "10"], capsys)
        rows = parse_csv(out)
        assert len(rows) == 10
        assert float(rows[0]["omega_i"]) == pytest.approx(1.0)
        assert float(rows[-1]["omega_i"]) == 0.0

    # at a mean E below about 1e-300 the service integrals once overflowed:
    # a RuntimeWarning on stderr, and omega_1 = 0 for pareto:1e-310.  The
    # first slot retains N E, the others about E^2 or less, which underflows
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("service,mean", [("pareto:1e-310", 1e-310), ("exp:1e-310", 1e-310),
                                              ("pareto:1e-300", 1e-300)])
    def test_omega_at_a_subnormal_mean(self, capsys, service, mean):
        code, out, err = run_cli(["omega", "--service", service, "--N", "3"], capsys)
        assert (code, err) == (0, "")
        omegas = [float(row["omega_i"]) for row in parse_csv(out)]
        assert omegas[0] == pytest.approx(3.0 * mean, rel=1e-9)
        assert omegas[1:] == [0.0, 0.0]

    @pytest.mark.parametrize("N", ["0", "-3"])
    def test_omega_needs_a_slot(self, capsys, N):
        code, out, err = run_cli(["omega", "--service", "exp:0.5", "--N", N], capsys)
        assert code == 2
        assert out == ""
        assert "slot count" in err


class TestStaff:
    def test_reference_row(self, capsys):
        code, out, _ = run_cli(
            ["staff", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100",
             "--eps", "1e-3"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["a_eps"]) == pytest.approx(1.2602, abs=2e-4)
        assert int(row["servers_ceil"]) == 127
        assert row["error"] == ""

    def test_batch_with_error_rows(self, capsys):
        code, out, _ = run_cli(
            ["staff", "--dist", "pois:2", "--service", "exp:0.5,pareto:0.5", "--N", "100",
             "--eps", "1e-3,1.0"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        good = [r for r in rows if r["error"] == ""]
        bad = [r for r in rows if r["error"] != ""]
        assert len(good) == 2 and len(bad) == 2
        assert all(r["error"].startswith("DomainError: target epsilon must be in (0, 1)")
                   for r in bad)

    def test_grid_has_no_error_rows(self, capsys):
        code, out, _ = run_cli(
            ["staff", "--dist", "pois:2", "--service", "exp:0.5,det:0.5,pareto:0.5",
             "--N", "100", "--eps", "1e-3,1e-4"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 6
        assert all(r["error"] == "" and float(r["a_eps"]) > 0.0 for r in rows)

    def test_zero_server_floor(self, capsys):
        # a staffing level below 1/N rounds down to zero servers, which are
        # always busy (Q = 1, no tilt solve; it exited 2 with "occupancy level
        # a=0.0 must exceed the mean load"); the upper count is solved as ever
        code, out, _ = run_cli(
            ["staff", "--dist", "det:1e-8", "--service", "exp:1", "--N", "100",
             "--eps", "1e-3"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert (row["servers_floor"], row["servers_ceil"], row["error"]) == ("0", "1", "")
        assert float(row["Q_floor_over_eps"]) == 1e3
        ceil = queue.queue_approx(DeterministicRate(1e-8), queue.ExpService(1.0), 100, 0.01)
        assert float(row["Q_ceil_over_eps"]) == pytest.approx(ceil.Q_check / 1e-3, rel=1e-10)

    def test_nonconvergence_exit_code(self, capsys, monkeypatch):
        # a band below the float resolution of Q can never be met
        monkeypatch.setattr("mixpois.staffing._BAND", 1e-300)
        code, _, err = run_cli(
            ["staff", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100",
             "--eps", "1e-3"],
            capsys,
        )
        assert code == 3
        assert err.startswith("error: staffing tilt search")
        assert err.count("error:") == 1

    def test_fully_failed_names_its_error_once(self, capsys):
        # at N = 1 the approximation cannot reach 1e-12 within the MGF domain
        # of exponential rates
        code, out, err = run_cli(
            ["staff", "--dist", "exp:2.5", "--service", "exp:0.5", "--N", "1",
             "--eps", "1e-12"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: level a=")
        assert "MgfDomainError:" not in err and err.count("error:") == 1

    @pytest.mark.parametrize("option", [["--verify-runs", "-5"], ["--seed", "-1"]],
                             ids=["verify-runs", "seed"])
    def test_audit_options_checked_before_any_row(self, monkeypatch, capsys, option):
        def unreachable(*args):
            raise AssertionError("a row was solved")

        monkeypatch.setattr("mixpois.staffing.solve_staffing", unreachable)
        code, out, err = run_cli(["staff", "--dist", "pois:2", "--service", "exp:0.5",
                                  "--N", "100", "--eps", "1e-3", *option], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("error:") == 1

    def test_programming_errors_propagate(self, monkeypatch):
        # only package errors become row errors
        def broken(self, tau, sf=1.0, sf_complement=0.0):
            raise TypeError("broken integrand")

        monkeypatch.setattr(PoissonRate, "cgf", broken)
        with pytest.raises(TypeError, match="broken integrand"):
            main(["staff", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100",
                  "--eps", "1e-3"])


@pytest.mark.parametrize("argv", [
    ["simulate", "--method", "mc", "--dist", "exp:1", "--alpha", "2", "--a", "2", "--N", "4",
     "--runs", "10"],
    ["queue-sim", "--dist", "pois:2", "--service", "exp:0.5", "--N", "10", "--a", "1",
     "--runs", "10"],
    ["staff", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100", "--eps", "1e-3"],
], ids=["simulate", "queue-sim", "staff"])
def test_shards_option_is_gone(capsys, argv):
    code, out, err = run_cli([*argv, "--shards", "3"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and "unrecognized arguments: --shards 3" in err


@pytest.mark.parametrize("argv", [
    ["repro"],
    ["staff", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100", "--eps", "1e-3",
     "--verify-runs", "0"],
], ids=["repro", "staff"])
def test_seed_range_checked_without_a_stream(capsys, monkeypatch, argv):
    # the range check alone refuses the seed; no Philox stream is built for it
    def no_stream(seed):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(cli.sampling, "stream", no_stream)
    assert run_cli([*argv, "--seed", str(2**64 - 1)], capsys)[0] == 0
    code, out, err = run_cli([*argv, "--seed", str(2**64)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: seed must lie in [0, 2^64), got {2**64}\n"


class TestRepro:
    def test_emitted_commands_parse(self, capsys):
        code, out, _ = run_cli(["repro", "--target", "all", "--runs", "1000"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert {r["target"] for r in rows} == {"fig1", "fig2", "fig4", "table1", "table2"}
        parser = build_parser()
        for row in rows:
            tokens = row["command"].split()
            assert tokens[0] == "mixpois"
            parser.parse_args(tokens[1:])  # must not raise


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

COMMANDS = ("approx", "exact-gamma", "simulate", "queue-approx", "queue-sim", "omega", "staff",
            "repro")

# each subcommand's options in registration order (the order of its usage
# line): flag, dest, type, default, choices, required.  `--help` is left out.
_REQ = (None, None, True)
OPTIONS = {
    "approx": [
        ("--dist", "dist", None, *_REQ),
        ("--alpha", "alpha", "_finite_float", *_REQ),
        ("--a", "a", "_finite_float", *_REQ),
        ("--N", "N", "_finite_float", *_REQ),
        ("--quantity", "quantity", None, "P", ("p", "P"), False),
        ("--output", "output", None, None, None, False),
    ],
    "exact-gamma": [
        ("--dist", "dist", None, *_REQ),
        ("--alpha", "alpha", "_finite_float", *_REQ),
        ("--a", "a", "_finite_float", *_REQ),
        ("--N", "N", "_finite_float", *_REQ),
        ("--output", "output", None, None, None, False),
    ],
    "simulate": [
        ("--method", "method", None, None, ("mc", "is-fast", "is-slow"), True),
        ("--dist", "dist", None, *_REQ),
        ("--alpha", "alpha", "_finite_float", *_REQ),
        ("--a", "a", "_finite_float", *_REQ),
        ("--N", "N", "_finite_float", *_REQ),
        ("--runs", "runs", "int", *_REQ),
        ("--quantity", "quantity", None, "P", ("p", "P"), False),
        ("--seed", "seed", "int", 0, None, False),
        ("--output", "output", None, None, None, False),
    ],
    "queue-approx": [
        ("--dist", "dist", None, *_REQ),
        ("--service", "service", None, *_REQ),
        ("--N", "N", "_finite_float", *_REQ),
        ("--a", "a", "_finite_float", *_REQ),
        ("--output", "output", None, None, None, False),
    ],
    "queue-sim": [
        ("--dist", "dist", None, *_REQ),
        ("--service", "service", None, *_REQ),
        ("--N", "N", "int", *_REQ),
        ("--a", "a", "_finite_float", *_REQ),
        ("--runs", "runs", "int", *_REQ),
        ("--seed", "seed", "int", 0, None, False),
        ("--output", "output", None, None, None, False),
    ],
    "omega": [
        ("--service", "service", None, *_REQ),
        ("--N", "N", "int", *_REQ),
        ("--output", "output", None, None, None, False),
    ],
    "staff": [
        ("--dist", "dist", None, *_REQ),
        ("--service", "service", None, *_REQ),
        ("--N", "N", "int", *_REQ),
        ("--eps", "eps", "_finite_floats", *_REQ),
        ("--verify-runs", "verify_runs", "int", 0, None, False),
        ("--seed", "seed", "int", 0, None, False),
        ("--output", "output", None, None, None, False),
    ],
    "repro": [
        ("--target", "target", None, "all", ("fig1", "fig2", "fig4", "table1", "table2", "all"),
         False),
        ("--runs", "runs", "int", 1_000_000, None, False),
        ("--seed", "seed", "int", 0, None, False),
        ("--output", "output", None, None, None, False),
    ],
}


def _subparsers(parser):
    """The subcommand parsers of ``parser``, by name."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", COMMANDS)
def test_options_pinned(command):
    subparsers = _subparsers(build_parser())
    assert list(subparsers) == list(COMMANDS)
    found = [
        (*action.option_strings, action.dest, getattr(action.type, "__name__", action.type),
         action.default, action.choices, action.required)
        for action in subparsers[command]._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert found == OPTIONS[command]


class TestParserReuse:
    """main reuses one parser; it must behave as a freshly built one."""

    def test_built_once(self):
        assert build_parser() is build_parser()
        assert build_parser.__wrapped__() is not build_parser()

    @pytest.mark.parametrize("argv", [["--help"]] + [[cmd, "--help"] for cmd in COMMANDS],
                             ids=["top"] + list(COMMANDS))
    def test_help_bytes(self, capsys, argv):
        code, reused, _ = run_cli(argv, capsys)
        with pytest.raises(SystemExit) as exc:
            build_parser.__wrapped__().parse_args(argv)
        assert (code, reused) == (exc.value.code, capsys.readouterr().out)
        assert code == 0 and reused.startswith("usage: mixpois")

    def test_same_namespace(self, capsys):
        _, out, _ = run_cli(["repro", "--target", "all"], capsys)
        argvs = [row["command"].split()[1:] for row in parse_csv(out)]
        argvs += [pinned["argv"].split() for pinned in STDOUT_PIN]
        assert len(argvs) == 44 + len(STDOUT_PIN)
        for argv in argvs:
            assert build_parser().parse_args(argv) == build_parser.__wrapped__().parse_args(argv)

    def test_readme_invocations_parse(self):
        # every `mixpois ...` line of README.md's sh blocks, continuations joined
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        argvs = [shlex.split(line)[1:] for line in lines if line.startswith("mixpois ")]
        assert len(argvs) == 8
        for argv in argvs:
            assert build_parser().parse_args(argv) == build_parser.__wrapped__().parse_args(argv)

    def test_usage_error_and_help_leave_no_trace(self, capsys, monkeypatch):
        staff = ["staff", "--dist", "pois:2", "--service", "exp:0.5,det:0.5", "--N", "100",
                 "--eps", "1e-3,1e-4"]
        assert run_cli(["staff", "--dist", "pois:2", "--N", "x"], capsys)[0] == 2
        assert run_cli(["staff", "--help"], capsys)[0] == 0
        reused = run_cli(staff, capsys)
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = run_cli(staff, capsys)
        assert reused == fresh
        assert reused[0] == 0 and len(parse_csv(reused[1])) == 4


class TestOutputFormat:
    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(
            ["queue-approx", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100",
             "--a", "1.3"],
            capsys,
        )
        row = parse_csv(out)[0]
        assert len(row["theta_star"].replace("-", "").replace(".", "").lstrip("0")) >= 11

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            ["omega", "--service", "exp:1", "--N", "3", "--output", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("i,omega_i\n")
        assert content.count("\n") == 4
        assert "\r" not in content

    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mixpois.cli", "omega", "--service", "exp:1",
             "--N", "3", "--bogus", "1"],
            capture_output=True, env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 2


# stdout and exit status of a fixed set of commands: all three simulate
# methods on the pooled slot sums of each rate law, the point variant,
# queue-sim, a verified staff row, omega, and the staff commands of repro's
# table1 and table2 targets without the audit.  A refactoring leaves them
# byte-identical; a change of results re-records the file and says why.
STDOUT_PIN = json.loads((pathlib.Path(__file__).parent / "cli_stdout_pin.json").read_text())


@pytest.mark.parametrize("pinned", STDOUT_PIN, ids=[p["argv"] for p in STDOUT_PIN])
def test_stdout_pin(capsys, pinned):
    code, out, _ = run_cli(pinned["argv"].split(), capsys)
    assert (code, out) == (pinned["exit"], pinned["stdout"])


# the crude and slow-regime simulate pins on gamma slot rates, whose overflow
# count is negative binomial, lie within 4 SE of the exact tail.  The SE is
# exact too: binomial for crude rows, and for is-slow rows that of the
# weight L = (lam / (lam - theta))^s exp(-theta S) on the event, with pooled
# shape s, whose second moment under the twist is E[L 1] =
# (lam^2 / ((lam - theta) (lam + theta)))^s times the tail at rate
# lam + theta.  The sample SE of these heavy-tailed weights shrinks with the
# estimate when the rare large weights are missing
GAMMA_PINS = [pinned for pinned in STDOUT_PIN
              if re.match(r"simulate --method (mc|is-slow) --dist (exp|gamma):", pinned["argv"])]


@pytest.mark.parametrize("pinned", GAMMA_PINS, ids=[p["argv"] for p in GAMMA_PINS])
def test_gamma_pin_matches_exact(pinned):
    args = build_parser().parse_args(pinned["argv"].split())
    dist = parse_rate(args.dist)
    case = GammaCase(dist.beta, dist.lam, args.alpha, args.a, args.N)
    exact = P_exact(case)
    if args.method == "mc":
        second_moment = exact
    else:
        theta = rate_function(dist, args.a).theta_star
        twisted = GammaCase(dist.beta, dist.lam + theta, args.alpha, args.a, args.N)
        second_moment = math.exp(case.shape * math.log(
            dist.lam**2 / ((dist.lam - theta) * (dist.lam + theta))) + log_P_exact(twisted))
    estimate = float(parse_csv(pinned["stdout"])[0]["estimate"])
    assert abs(estimate - exact) <= 4.0 * math.sqrt((second_moment - exact**2) / args.runs)


# the is-fast pins lie within 4 exact SE of their exact values.  A run that
# proposes z from Pois(N a) and draws the pooled rate X weighs
# (X / a)^z e^(N (a - X)), so the second moment of the weight sums
# Pois(N a)(z) E[(X / a)^(2z) e^(2 N (a - X))] over the hit counts z: a
# gamma moment for gamma slot rates, X ~ Gamma(s, rate lam N^alpha), and a
# sum over the pooled count for Poisson ones.  Over every z >= k that sum
# diverges, but the proposal's table holds only the counts below its cut
# (sampling._count_law), and the tail rows sum to there
IS_FAST_PINS = [pinned for pinned in STDOUT_PIN
                if pinned["argv"].startswith("simulate --method is-fast")]


def _is_fast_pin_exact(args) -> tuple[float, float]:
    """(exact value, second moment of the weight) of an is-fast pin."""
    dist = parse_rate(args.dist)
    N, a, k = args.N, args.a, round(args.N * args.a)
    if args.quantity == "p":
        hits = [k]
    else:
        hits = range(k, sampling._count_law(0.0, N * a).size)
    if isinstance(dist, GammaRate):
        case = GammaCase(dist.beta, dist.lam, args.alpha, a, N)
        exact = p_exact(case) if args.quantity == "p" else P_exact(case)
        rate = dist.lam * N**args.alpha

        def log_moment(z):  # log E[X^(2z) e^(-2 N X)]
            return (case.shape * math.log(rate) + math.lgamma(case.shape + 2 * z)
                    - math.lgamma(case.shape) - (case.shape + 2 * z) * math.log(rate + 2 * N))

        moments = [math.exp(log_moment(z) - 2 * z * math.log(a)) for z in hits]
    else:
        slots = round(N**args.alpha)
        tail = lambda count: pooled_poisson_tail(dist.lam, slots, N, count)
        exact = tail(k) - tail(k + 1) if args.quantity == "p" else tail(k)
        mean = slots * dist.lam
        js = range(1, math.ceil(mean + 40.0 * math.sqrt(mean) + 40.0))
        moments = [math.fsum(math.exp(poisson_log_pmf(mean, j) - 2 * N * j / slots
                                      + 2 * z * math.log(j / (slots * a))) for j in js)
                   for z in hits]
    second_moment = math.exp(2 * N * a) * math.fsum(
        math.exp(poisson_log_pmf(N * a, z)) * moment for z, moment in zip(hits, moments))
    return exact, second_moment


@pytest.mark.parametrize("pinned", IS_FAST_PINS, ids=[p["argv"] for p in IS_FAST_PINS])
def test_is_fast_pin_matches_exact(pinned):
    args = build_parser().parse_args(pinned["argv"].split())
    exact, second_moment = _is_fast_pin_exact(args)
    estimate = float(parse_csv(pinned["stdout"])[0]["estimate"])
    assert abs(estimate - exact) <= 4.0 * math.sqrt((second_moment - exact**2) / args.runs)


# argvs that take a path of their own through the parse: no command, options
# or help before it, unknown and abbreviated command words, arguments the
# command leaves over, "--", the --opt=value form, abbreviated and repeated
# options
PARSE_EDGE_CASES = {
    "no arguments": [],
    "help before the command": ["-h", "omega"],
    "option before the command": ["--N", "3", "omega", "--service", "exp:1"],
    "unknown command": ["bogus", "--N", "3"],
    "abbreviated command": ["omeg", "--service", "exp:1", "--N", "3"],
    "command word only": ["omega"],
    "unrecognised option": ["omega", "--service", "exp:1", "--N", "3", "--bogus", "1"],
    "unrecognised positional": ["omega", "--service", "exp:1", "--N", "3", "extra"],
    "command word twice": ["omega", "omega", "--service", "exp:1", "--N", "3"],
    "double dash at the end": ["omega", "--service", "exp:1", "--N", "3", "--"],
    "double dash before an option": ["omega", "--service", "exp:1", "--", "--N", "3"],
    "double dash before the command": ["--", "omega", "--service", "exp:1", "--N", "3"],
    "equals form": ["omega", "--service=exp:1", "--N=3"],
    "equals form with a comma list": ["staff", "--dist=pois:2", "--service=exp:0.5,det:0.5",
                                      "--N=100", "--eps=1e-3,1e-4"],
    "abbreviated option": ["omega", "--serv", "exp:1", "--N", "3"],
    "abbreviated help": ["omega", "--he"],
    "ambiguous abbreviation": ["staff", "--dist", "pois:2", "--s", "exp:0.5", "--N", "100",
                               "--eps", "1e-3"],
    "repeated option": ["omega", "--service", "exp:1", "--N", "3", "--N", "4"],
    "help among valid options": ["omega", "--service", "exp:1", "-h", "--N", "3"],
}

# every argv of this file: the stdout pins, the rejected and non-finite
# inputs, help, the pinned options given without a value and with a bad one,
# and the edge cases above
PARSE_ARGVS = {
    **{pinned["argv"]: pinned["argv"].split() for pinned in STDOUT_PIN},
    **{name: argv for name, (argv, _, _) in REJECTED_INPUTS.items()},
    **NON_FINITE_INPUTS,
    "help": ["--help"],
    **{f"{command} --help": [command, "--help"] for command in COMMANDS},
    **{f"{command} {option[0]}{tail}": [command, option[0], *value]
       for command, options in OPTIONS.items() for option in options
       for tail, value in (("", ()), (" x", ("x",)))},
    **PARSE_EDGE_CASES,
}


@pytest.mark.parametrize("argv", PARSE_ARGVS.values(), ids=PARSE_ARGVS.keys())
def test_one_pass_parse_matches_full_parse(capsys, monkeypatch, tmp_path, argv):
    # main dispatches on the command word; the full parse must give the same
    # exit status, stdout and stderr.  "repro --output x" writes ./x
    monkeypatch.chdir(tmp_path)
    one_pass = run_cli(argv, capsys)
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
    assert run_cli(argv, capsys) == one_pass


def test_command_word_skips_the_top_level_parse(monkeypatch):
    def full_parse(argv):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(build_parser(), "parse_args", full_parse)
    argv = ["staff", "--dist", "pois:2", "--service", "exp:0.5", "--N", "100", "--eps", "1e-3"]
    assert cli._parse(argv) == build_parser.__wrapped__().parse_args(argv)


def _dict_writer_csv(rows):
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: cli._fmt(value) for key, value in row.items()})
    return out.getvalue()


class TestWriteRows:
    ROWS = [
        {"service": "twopoint:0.75,1,5", "E": 0.5, "eps": 1e-3, "servers": 127, "Q": None,
         "error": "DomainError: level a=15.0 is unreachable: tilts are confined to (0, 1.25276] "
                  "by the MGF domain, which only reaches mean level 14.4045"},
        {"service": 'say "hi"', "E": -0.0, "eps": 1.0 / 3.0, "servers": -5, "Q": math.inf,
         "error": ""},
        {"service": "line\nbreak", "E": 1e300, "eps": 0.1 + 0.2, "servers": 0, "Q": 2.5e-300,
         "error": None},
    ]

    def test_bytes_match_dict_writer(self):
        out = io.StringIO()
        cli._write_rows(out, self.ROWS)
        assert out.getvalue() == _dict_writer_csv(self.ROWS)
        assert '"twopoint:0.75,1,5"' in out.getvalue() and '"say ""hi"""' in out.getvalue()

    def test_row_lacking_a_header_key_raises(self):
        # DictWriter wrote the missing value as an empty field
        short = {key: value for key, value in self.ROWS[1].items() if key != "Q"}
        with pytest.raises(ValueError, match="differ from the header"):
            cli._write_rows(io.StringIO(), [self.ROWS[0], short])
        with pytest.raises(KeyError, match="'Q'"):
            cli._write_rows(io.StringIO(), [self.ROWS[0], {**short, "extra": 1}])

    def test_row_with_a_key_more_raises(self):
        with pytest.raises(ValueError, match="differ from the header"):
            cli._write_rows(io.StringIO(), [self.ROWS[0], {**self.ROWS[1], "extra": 1}])
