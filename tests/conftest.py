"""Shared fixtures plus a terminal summary of the acceptance criteria.

The session-scoped fixtures cache the expensive demo-system artifacts (DARE
solution, Gramian, certificate) so the suite computes each exactly once.
At the end of a run, any tests named ``test_criterion_<n>_*`` are rolled up
into one PASS/FAIL line per criterion number.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import drclqr as d

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "systems"

DEMO_PATH = SYSTEMS_DIR / "demo3x3.json"
SCALAR_STABLE_PATH = SYSTEMS_DIR / "scalar_stable.json"
SCALAR_UNSTABLE_PATH = SYSTEMS_DIR / "scalar_unstable.json"


@pytest.fixture(scope="session")
def demo_system():
    return d.load_system(DEMO_PATH)


@pytest.fixture(scope="session")
def demo_solution(demo_system):
    return d.solve_dare(demo_system)


@pytest.fixture(scope="session")
def demo_gramian(demo_system):
    return d.gramian(demo_system.A, demo_system.Q)


@pytest.fixture(scope="session")
def demo_cert(demo_system, demo_solution):
    A_cl = demo_system.A + demo_system.B @ demo_solution.K
    return d.joint_certificate(demo_system.A, A_cl)


@pytest.fixture
def eigvals_calls(monkeypatch):
    """Count the package's eigenvalue passes: every np.linalg.eigvals call."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


@pytest.fixture(scope="session")
def scalar_stable():
    return d.load_system(SCALAR_STABLE_PATH)


@pytest.fixture(scope="session")
def scalar_unstable_with_gain():
    from drclqr.cli import load_system_file

    return load_system_file(SCALAR_UNSTABLE_PATH)


# ---------------------------------------------------------------------------
# Acceptance-criterion roll-up
# ---------------------------------------------------------------------------

_CRITERION = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    statuses = {}
    for outcome in ("passed", "failed", "error", "xfailed", "xpassed"):
        for rep in terminalreporter.stats.get(outcome, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if m:
                statuses.setdefault(int(m.group(1)), []).append(outcome)
    if not statuses:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(statuses):
        outcomes = statuses[num]
        if any(o in ("failed", "error", "xpassed") for o in outcomes):
            line = f"[criterion {num}] FAIL"
        elif "xfailed" in outcomes:
            line = (
                f"[criterion {num}] FAIL (expected) - one clause is unattainable as stated; "
                f"companion clauses pass (see test docstrings)"
            )
        else:
            line = f"[criterion {num}] PASS"
        tw.write_line(line)
