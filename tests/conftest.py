"""Shared test plumbing.

The acceptance module records one line per criterion; the terminal-summary
hook prints them at the end of the run so the pass/fail report is visible
without -s.  ``inverse_steps`` counts the warm solver's inverse steps.
"""

import pytest

from saext import fem

ACCEPTANCE_RESULTS: list[str] = []


def record_criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number:2d}: {name}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_RESULTS.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(line)


@pytest.fixture
def inverse_steps(monkeypatch):
    """Counts the inverse steps (arrow-block solves) of each solve: the
    rounds of the warm solver, ``eigen._SearchSpace.solve_stack``, are the
    only caller in the library."""
    calls = []
    solve = fem.ArrowBlocks.solve

    def counted(self, x, rhs):
        calls.append(x)
        return solve(self, x, rhs)

    monkeypatch.setattr(fem.ArrowBlocks, "solve", counted)
    return calls
