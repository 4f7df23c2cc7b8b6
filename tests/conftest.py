"""Shared pytest plumbing: pins BLAS to one thread, collects
acceptance-criterion outcomes and prints one pass/fail line per criterion
at the end of the run."""

import os

# As CI and perfbench do. A multi-threaded BLAS beside a busy CPU burns
# time that the timing checks count (criterion 10). This file is imported
# before numpy, so the setting takes effect; a value set outside wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ACCEPTANCE_RESULTS = []


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
