"""Tests of the benchmark's own code: span arithmetic, output checks, wrappers.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

import inspect
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import steady  # noqa: E402
from tracer import Tracer, has_ancestor, self_times, windcast_modules  # noqa: E402


def test_self_time_subtracts_children_on_a_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 5.0, 9.0, 0, None],
        ["c", 6.0, 8.0, 2, None],
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert has_ancestor(spans, 3, "root")
    assert not has_ancestor(spans, 1, "b")


def test_tracer_records_nested_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, amount=lambda a, k, r: r)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    labels = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert labels == [("outer", -1, None), ("inner", 0, 2), ("inner", 0, 3)]
    assert all(own >= 0.0 for own in self_times(tracer.spans))


def _write(path, rows):
    header = "timestamp,y_true,q0.1,q0.5,q0.9"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return str(path)


GOOD = ["2021-01-01T00:00:00,1.0,0.5,1.0,1.5", "2021-01-01T00:15:00,2.0,1.5,2.0,2.5"]


def test_predictions_check_accepts_a_good_file(tmp_path):
    assert checks.check_predictions(_write(tmp_path / "p.csv", GOOD), 2, True) == []


def test_predictions_check_rejects_one_nan_cell(tmp_path):
    rows = [GOOD[0], "2021-01-01T00:15:00,2.0,1.5,nan,2.5"]
    problems = checks.check_predictions(_write(tmp_path / "p.csv", rows), 2, True)
    assert problems and "non-finite" in problems[0]


def test_predictions_check_rejects_a_crossed_quantile_row(tmp_path):
    rows = [GOOD[0], "2021-01-01T00:15:00,2.0,1.5,2.6,2.5"]
    problems = checks.check_predictions(_write(tmp_path / "p.csv", rows), 2, True)
    assert problems and "cross" in problems[0]


def test_predictions_check_rejects_a_missing_row(tmp_path):
    problems = checks.check_predictions(_write(tmp_path / "p.csv", GOOD[:1]), 2, True)
    assert problems and "expected 2" in problems[0]


def test_json_check_rejects_non_finite_values(tmp_path):
    path = tmp_path / "e.json"
    path.write_text('{"r2": NaN}', encoding="utf-8")
    assert checks.load_json(str(path))[1]
    assert checks.check_evaluation(str(path), 0.0)


def _functions():
    """Every function and method reachable from a windcast module."""
    found = {}
    for module in windcast_modules():
        for name, value in vars(module).items():
            if inspect.isfunction(value):
                found[(module.__name__, name)] = value
            elif inspect.isclass(value) and value.__module__.startswith("windcast"):
                for attr, member in vars(value).items():
                    found[(module.__name__, name, attr)] = member
    return found


def test_install_then_remove_leaves_every_function_identical():
    pytest.importorskip("windcast.cli")
    before = _functions()
    tracer = Tracer()
    tracer.install()
    try:
        import windcast
        from windcast import network, optim, pipeline

        assert network.forward is not before[("windcast.network", "forward")]
        assert optim.forward is network.forward is pipeline.forward is windcast.forward
        assert network.Loss.value_and_grad is not before[
            ("windcast.network", "Loss", "value_and_grad")]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()
    after = _functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_a_command_that_times_out_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "COMMAND_TIMEOUT_S", 0.001)
    result = run.run_worker(["--help"], str(tmp_path), "train", traced=False)
    assert "train: timed out after 0.001 s" in result["problems"]
    assert result["wall_s"] > 0.0


def _sets(name, *medians, width=0.01):
    """One set of three runs per median, the runs spread by width around it."""
    return [[{"metrics": {name: {"value": m * (1 + f)}}} for f in (-width, 0.0, width)]
            for m in medians]


def test_steadiness_judge_rejects_drift_in_either_direction():
    metrics = [{"name": "session_s", "bound": 0.25}]
    assert steady.judge({"w": _sets("session_s", 10.0, 11.0)}, metrics)
    assert not steady.judge({"w": _sets("session_s", 10.0, 13.0)}, metrics)
    assert not steady.judge({"w": _sets("session_s", 10.0, 7.0)}, metrics)


def test_steadiness_judge_holds_only_the_setup_median_to_the_bound():
    for name, agree in (("session_s", False), ("setup_s", True)):
        metrics = [{"name": name, "bound": 0.25}]
        assert steady.judge({"w": _sets(name, 1.0, 1.0, width=0.3)}, metrics) is agree
    assert not steady.judge({"w": _sets("setup_s", 1.0, 1.3)}, [{"name": "setup_s", "bound": 0.25}])
