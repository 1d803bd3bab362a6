"""The benchmark's per-layer tracer (bench/tracing.py) replaces package
functions by timing wrappers, looking each one up by name, and reads some of
their arguments and results.  These tests read its tables with ``ast``, so a
refactoring that renames or reshapes a traced function fails here instead of
silently breaking ``bench/run.py --trace 1``."""

import ast
import importlib
import inspect
import pathlib

import pytest

from mixpois.rates import parse_rate
from mixpois.sampling import EstimatorResult

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracer_constant(name: str):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACING}")


SPANS = _tracer_constant("SPANS")
COUNTED = _tracer_constant("COUNTED")
SAMPLERS = _tracer_constant("SAMPLERS")


def _function(module: str, name: str):
    return getattr(importlib.import_module(f"mixpois.{module}"), name)


@pytest.mark.parametrize("module,name", [*SPANS, *COUNTED],
                         ids=[f"{m}.{f}" for m, f in (*SPANS, *COUNTED)])
def test_traced_function_exists(module, name):
    assert callable(_function(module, name))


@pytest.mark.parametrize("layer", SAMPLERS)
def test_sampler_takes_the_arguments_the_tracer_reads(layer):
    module, name = layer.split(".")
    parameters = inspect.signature(_function(module, name)).parameters
    # queue.mc_Q's draws are counted from runs and N alone
    needed = {"runs", "N"} if layer == "queue.mc_Q" else {"dist", "alpha", "N", "runs"}
    assert needed <= set(parameters)


def test_results_carry_what_the_tracer_reads():
    fields = EstimatorResult.__dataclass_fields__
    assert {"estimate", "second_moment"} <= set(fields)
    # the tracer counts draws from the rate law's specification text
    for spec in ("exp:2.5", "gamma:2,1", "pois:2", "twopoint:0.75,1,5", "det:2"):
        assert parse_rate(spec).label() == spec
