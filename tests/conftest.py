"""Shared pytest plumbing: pins BLAS to one thread, checks that no child
process is left, stands in for Python 3.10's fromisoformat on request
(--py310-fromisoformat), collects acceptance-criterion outcomes and
prints one pass/fail line per criterion at the end of the run."""

import os
import re
from datetime import datetime

import pytest

# Pins BLAS to one thread where the environment does not set it: this file
# is imported before any test module imports numpy. A multi-threaded BLAS
# beside a busy CPU burns time that the timing checks count (criterion 10).
import windcast  # noqa: F401

ACCEPTANCE_RESULTS = []
_FORK = os.fork  # before any test replaces it


def pytest_addoption(parser):
    parser.addoption(
        "--py310-fromisoformat", action="store_true",
        help="load CSVs with a stand-in for Python 3.10's datetime.fromisoformat",
    )


class Py310Datetime:
    """datetime as windcast.data uses it, but whose fromisoformat rejects
    a trailing Z and skips any one character between a digit and an
    offset's sign, as Python 3.10's does. It models those two rules only:
    the rest is read by the running Python's fromisoformat, which on 3.11
    accepts forms 3.10 rejects, such as a one-digit fraction."""

    @staticmethod
    def fromisoformat(text):
        if text.endswith("Z"):
            raise ValueError(f"Invalid isoformat string: {text!r}")
        return datetime.fromisoformat(re.sub(r"(?<=\d)[^\d.](?=[+-])", "", text, count=1))


@pytest.fixture(autouse=True)
def _py310_fromisoformat(request, monkeypatch):
    """With --py310-fromisoformat, every test loads CSVs through Py310Datetime."""
    if request.config.getoption("--py310-fromisoformat"):
        import windcast.data

        monkeypatch.setattr(windcast.data, "datetime", Py310Datetime)


def assert_no_child_left() -> None:
    """Assert that this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fork_fails_after(monkeypatch, forks: int) -> None:
    """Let os.fork make forks children, then fail as at the process limit."""
    made = []

    def fork():
        if len(made) == forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        made.append(None)
        return _FORK()

    monkeypatch.setattr(os, "fork", fork)


def open_descriptors() -> set:
    return set(os.listdir("/proc/self/fd"))


def record_criterion(number: int, label: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, label, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, label, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {number:2d}: {label}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
