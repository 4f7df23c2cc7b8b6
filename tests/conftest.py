"""Shared pytest plumbing: pins BLAS to one thread, checks that no child
process is left, collects acceptance-criterion outcomes and prints one
pass/fail line per criterion at the end of the run."""

import os

import pytest

# Pins BLAS to one thread where the environment does not set it: this file
# is imported before any test module imports numpy. A multi-threaded BLAS
# beside a busy CPU burns time that the timing checks count (criterion 10).
import windcast  # noqa: F401

ACCEPTANCE_RESULTS = []
_FORK = os.fork  # before any test replaces it


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
