import os
import pathlib

import pytest

from mixpois import queue

# a child interpreter does not see pytest's pythonpath setting, so it gets
# the source directory on PYTHONPATH
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(pathlib.Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))}

_ACCEPTANCE_LINES: dict[str, str] = {}


@pytest.fixture
def rule_calls(monkeypatch):
    """The (rule, tau) of each occupancy-rule evaluation, in call order, by
    the composite rules and by the one-node rules."""
    calls = []

    def count(cls):
        integrals = cls.integrals

        def counted(rule, dist, tau):
            calls.append((rule, tau))
            return integrals(rule, dist, tau)

        monkeypatch.setattr(cls, "integrals", counted)

    count(queue._Rule)
    count(queue._UnitRule)
    return calls


@pytest.fixture(scope="session")
def acceptance_log():
    """Registry of one status line per acceptance criterion."""

    def record(criterion: str, status: str, detail: str) -> None:
        _ACCEPTANCE_LINES[criterion] = f"{criterion}: {status} - {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for key in sorted(_ACCEPTANCE_LINES, key=lambda k: (len(k), k)):
            terminalreporter.write_line(_ACCEPTANCE_LINES[key])
