"""The package keeps only what its entry points reach.  These tests read
``src/mixpois`` and ``bench`` with ``ast``, the way test_bench_tracer.py reads
the tracer: a module-level function or class that nothing there names, apart
from its own definition and ``__all__``, is code only the tests use, and
belongs beside them."""

import ast
import collections
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "mixpois").glob("*.py"))
CALLERS = [*MODULES, *sorted((ROOT / "bench").glob("*.py"))]

# library API that nothing in src/ or bench/ names
ALLOWED = {
    "integrate",          # the tests' reference integrator; bench/tracing.py binds it by name
    "approx_slow_case2",  # the paper's bounded-support formula
    "p_exact",            # twin of P_exact, the point probability
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
