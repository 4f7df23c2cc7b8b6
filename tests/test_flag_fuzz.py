"""A seeded fuzz of the command lines: each command's known-good flags,
mutated, end in an exit code, with no traceback, no non-finite value in a
written file and no file left behind by a command that fails."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import traceback

import pytest

import windcast._util
from windcast.cli import main

from synth import write_wind_csv

CONFIG = {
    "schema_version": 1,
    "data": {"path": "wind.csv", "timestamp_col": "timestamp", "target_col": "power",
             "mode": "nwp", "feature_cols": ["WS10", "WD10", "WS100", "WD100"]},
    "model": {"hidden_sizes": [4], "loss": "pinball", "quantile_levels": [0.1, 0.5, 0.9]},
    "optimizer": {"kind": "adam", "fixed_lr": 0.05},
    "strategies": {"centralize": True, "cosine_lr": True, "initial_lr": 0.05,
                   "noise_tau": 0.0001},
    "training": {"epochs": 3, "seed": 1},
}

# one known-good command line per command and explain mode; no default
# output path names an input
KNOWN_GOOD = (
    ("train", "--config", "fuzz.json", "--out", "out.json", "--trace-out", "out.csv",
     "--seed", "2"),
    ("predict", "--model", "fuzz_model.json", "--config", "fuzz.json", "--out", "out.csv"),
    ("evaluate", "--model", "fuzz_model.json", "--config", "fuzz.json", "--out", "out.json",
     "--probabilistic"),
    ("explain", "--model", "fuzz_model.json", "--config", "fuzz.json", "--mode", "pfi",
     "--out", "out.json", "--svg-out", "out.svg", "--split", "train", "--repeats", "2",
     "--seed", "1"),
    ("explain", "--model", "fuzz_model.json", "--config", "fuzz.json", "--mode", "lime",
     "--out", "out.json", "--svg-out", "out.svg", "--instance-index", "3",
     "--lime-samples", "40", "--perturb-scale", "0.2", "--kernel-width", "1.5",
     "--ridge-lambda", "1e-4", "--seed", "1"),
    ("benchmark", "--config", "fuzz.json", "--seeds", "2", "--out", "out.json",
     "--seed", "3"),
)
OUTPUTS = {"train": ("--out", "--trace-out"), "explain": ("--out", "--svg-out")}
HUGE = str(10 ** 400)
VALUES = ("-1", "-0.5", "nan", "inf", "-inf", HUGE, "", os.path.join("no_such_dir", "x"))
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.I)

# size mutations run here, in a process whose address space is capped, so a
# size that slips past its check fails fast rather than filling the memory
FUZZ_DRIVER = """
import json, resource, sys
import test_flag_fuzz, windcast._util
windcast._util.usable_cpus = lambda: 1
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
print(json.dumps([test_flag_fuzz.outcome(argv) for argv in json.load(sys.stdin)]))
"""


def mutate(argv: tuple, rng: random.Random) -> list:
    """argv with one or two of its flags dropped, repeated, given another
    output's path or given one of VALUES."""
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        flags = [i for i, arg in enumerate(argv) if arg.startswith("--")]
        if not flags:
            break
        i = rng.choice(flags)
        valued = i + 1 < len(argv) and not argv[i + 1].startswith("--")
        action = rng.randrange(4)
        if action == 0:
            del argv[i:i + 1 + valued]
        elif action == 1:
            argv += argv[i:i + 1 + valued]
        elif action == 2 and argv[0] in OUTPUTS and set(OUTPUTS[argv[0]]) <= set(argv):
            out, other = (argv.index(flag) for flag in OUTPUTS[argv[0]])
            argv[other + 1] = rng.choice(("", "./")) + argv[out + 1]
        elif valued:
            argv[i + 1] = rng.choice(VALUES)
    return argv


def outcome(argv: list) -> tuple:
    """Run windcast in this process and directory: its exit code, or the
    traceback of what it raised; its stderr; and the text of each file it
    made, which is then removed."""
    before = set(os.listdir())
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = traceback.format_exc()
    made = {}
    for name in sorted(set(os.listdir()) - before):
        with open(name, encoding="utf-8") as fh:
            made[name] = fh.read()
        os.remove(name)
    return code, err.getvalue(), made


def check(argv: list, result) -> None:
    """Assert what every command line must give, whatever its mutations."""
    code, err, made = result
    assert code in range(5), f"{argv}: {code}"
    if code:
        assert err.startswith("windcast:") and "Traceback" not in err, f"{argv}: {err}"
        assert not made, f"{argv} exits {code} and leaves {sorted(made)}"
    for name, text in made.items():
        assert not NON_FINITE.search(text), f"{argv} writes a non-finite value to {name}"


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    """A 160-row CSV, its config and a quantile model trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    write_wind_csv(str(root / "wind.csv"), n_rows=160, seed=31)
    (root / "fuzz.json").write_text(json.dumps(CONFIG))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main(["train", "--config", "fuzz.json", "--out", "fuzz_model.json"]) == 0
    finally:
        os.chdir(cwd)
    return root


def test_mutated_flags_end_in_an_exit_code(fuzzdir, monkeypatch):
    rng = random.Random(20242)
    cases = [mutate(rng.choice(KNOWN_GOOD), rng) for _ in range(400)]
    monkeypatch.setattr(windcast._util, "usable_cpus", lambda: 1)
    monkeypatch.chdir(fuzzdir)
    for argv in cases:
        if HUGE not in argv:
            check(argv, outcome(argv))
    sized = [argv for argv in cases if HUGE in argv]
    tests = os.path.dirname(__file__)
    src = os.path.dirname(os.path.dirname(windcast._util.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", FUZZ_DRIVER], input=json.dumps(sized), cwd=fuzzdir,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests))),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    for argv, result in zip(sized, json.loads(proc.stdout), strict=True):
        check(argv, result)
    assert sized
    assert sorted(os.listdir(fuzzdir)) == ["fuzz.json", "fuzz_model.json",
                                           "fuzz_model.trace.csv", "wind.csv"]
