"""The package keeps only what its entry points reach.  These tests read
``src/mixpois`` and ``bench`` with ``ast``, the way test_bench_tracer.py reads
the tracer: a module-level function or class that nothing there names, apart
from its own definition and ``__all__``, is code only the tests use, and
belongs beside them."""

import argparse
import ast
import collections
import importlib
import pathlib

import pytest

from mixpois.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "mixpois").glob("*.py"))
CALLERS = [*MODULES, *sorted((ROOT / "bench").glob("*.py"))]

# library API that nothing in src/ or bench/ names
ALLOWED = {
    "integrate",          # the tests' reference integrator; bench/tracing.py binds it by name
    "approx_slow_case2",  # the paper's bounded-support formula
    "p_exact",            # twin of P_exact, the point probability
    "theta_star_queue",   # the public tilt solve; bench/tracing.py binds it by name
}


def _names(tree: ast.AST):
    """Identifiers the tree mentions: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _unnamed() -> set[str]:
    """Module-level functions and classes of the package that src/ and bench/
    name only inside their own definitions (``__all__`` holds strings)."""
    mentions = collections.Counter()
    for path in CALLERS:
        mentions.update(_names(ast.parse(path.read_text())))
    unnamed = set()
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if mentions[node.name] == collections.Counter(_names(node))[node.name]:
                    unnamed.add(node.name)
    return unnamed


def test_every_definition_is_reached():
    assert _unnamed() - ALLOWED == set()


def test_allowlist_is_current():
    # an entry whose name is gone, or is now named somewhere, must be dropped
    assert ALLOWED <= _unnamed()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_exist(path):
    module = importlib.import_module(
        "mixpois" if path.stem == "__init__" else f"mixpois.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# the package's knobs: the options the command-line parser registers,
# environment reads and defaulted function parameters.  A change that adds
# or removes one updates this pin.
OPTION_BUDGET = {"options": 46, "environment reads": 0, "defaulted parameters": 15}


def _option_counts() -> dict[str, int]:
    counts = dict.fromkeys(OPTION_BUDGET, 0)
    for path in MODULES:
        tree = ast.parse(path.read_text())
        counts["environment reads"] += sum(
            name in ("environ", "environb", "getenv") for name in _names(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                counts["defaulted parameters"] += len(node.args.defaults) + sum(
                    default is not None for default in node.args.kw_defaults)
    # counted on the built parser, as a helper registers the shared options
    (subcommands,) = (action for action in build_parser.__wrapped__()._actions
                      if isinstance(action, argparse._SubParsersAction))
    counts["options"] = sum(not isinstance(action, argparse._HelpAction)
                            for parser in subcommands.choices.values()
                            for action in parser._actions)
    return counts


def test_option_budget():
    assert _option_counts() == OPTION_BUDGET


# the draw layer lives in sampling: queue takes from it the result type, the
# estimator driver and the occupancy sampler, and names no rate-law class;
# no other module names its table policy or its count helpers.  A change
# that moves a law out of sampling updates this pin.
QUEUE_FROM_SAMPLING = {"EstimatorResult", "_occupancy_sampler", "_run_blocks"}
TABLE_POLICY = {"_TABLE_TAIL", "_BLOCK_SCALARS", "_OCCUPANCY_BITS", "_TABLE_BITS_MAX"}
RATE_LAWS = {"PoissonRate", "TwoPoint", "GammaRate", "DeterministicRate", "Exponential"}


def test_draw_layer_lives_in_sampling():
    sampling = ROOT / "src" / "mixpois" / "sampling.py"
    queue = ast.parse((ROOT / "src" / "mixpois" / "queue.py").read_text())
    assert {alias.name for node in ast.walk(queue)
            if isinstance(node, ast.ImportFrom) and node.module == "sampling"
            for alias in node.names} == QUEUE_FROM_SAMPLING
    assert RATE_LAWS.isdisjoint(_names(queue))
    count_helpers = {node.name for node in ast.parse(sampling.read_text()).body
                     if isinstance(node, ast.FunctionDef) and node.name.startswith("_count_")}
    named = {path.stem: (TABLE_POLICY | count_helpers) & set(_names(ast.parse(path.read_text())))
             for path in CALLERS if path != sampling}
    assert {stem: names for stem, names in named.items() if names} == {}
