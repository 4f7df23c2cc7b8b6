"""_util's shared helpers: forked_map's ordered map over forked processes,
dump_json's text of numpy values, and the file modes atomic_writer leaves."""

import os
import stat

import numpy as np
import pytest

from windcast import _util
from windcast._util import atomic_write_text, dump_json
from windcast.errors import NonFiniteReportError, ToolkitError

from conftest import assert_no_child_left, fork_fails_after, open_descriptors


def square_where(item):
    """item squared, and the process that squared it."""
    return item * item, os.getpid()


@pytest.fixture(params=[1, 2, 4], ids=lambda n: f"{n}cpu")
def cpus(request, monkeypatch):
    """forked_map told that this many CPUs are usable; with one, forking
    fails the test."""
    monkeypatch.setattr(_util, "usable_cpus", lambda: request.param)
    if request.param == 1:
        def no_fork():
            raise AssertionError("a process was forked with one usable CPU")

        monkeypatch.setattr(os, "fork", no_fork)
    yield request.param
    assert_no_child_left()


def mapped(items, here=False, cap=None, fn=square_where):
    with _util.forked_map("test", fn, items, here, cap) as results:
        return list(results)


class TestForkedMap:
    @pytest.mark.parametrize("n_items", [0, 1, 7])
    @pytest.mark.parametrize("here", [False, True])
    @pytest.mark.parametrize("cap", [None, 2])
    def test_results_come_in_item_order_from_every_nth_item(self, cpus, n_items, here, cap):
        out = mapped(range(n_items), here, cap)
        assert [value for value, _ in out] == [k * k for k in range(n_items)]
        pids = [pid for _, pid in out]
        n = min(cpus, n_items if cap is None else cap)
        if n <= 1:
            assert pids == [os.getpid()] * n_items
            return
        # process j of n computes items j, j + n, ...: this one is process 0
        # where here is set, and computes nothing where it is not
        assert len(set(pids[:n])) == min(n, n_items)
        assert pids == [pids[k % n] for k in range(n_items)]
        assert [pid == os.getpid() for pid in pids] == [here and k % n == 0
                                                       for k in range(n_items)]

    @pytest.mark.parametrize("here", [False, True])
    @pytest.mark.parametrize("forks", [0, 1])
    def test_a_failed_fork_leaves_the_items_to_the_rest(self, monkeypatch, here, forks):
        monkeypatch.setattr(_util, "usable_cpus", lambda: 4)
        fork_fails_after(monkeypatch, forks)
        fds = open_descriptors()
        out = mapped(list(range(9)), here)
        assert [value for value, _ in out] == [k * k for k in range(9)]
        assert len({pid for _, pid in out}) == max(1, forks + here)
        assert open_descriptors() == fds
        assert_no_child_left()

    def test_an_exception_in_a_child_is_raised_here(self, monkeypatch):
        monkeypatch.setattr(_util, "usable_cpus", lambda: 2)

        def failing(item):
            if item == 1:
                raise KeyError(item, os.getpid())
            return item

        with pytest.raises(KeyError) as exc:
            mapped(range(4), here=True, fn=failing)
        assert exc.value.args[0] == 1 and exc.value.args[1] != os.getpid()
        assert_no_child_left()

    def test_a_child_that_exits_ends_in_a_toolkit_error(self, monkeypatch):
        monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
        here = os.getpid()

        def exiting(item):
            if os.getpid() != here:
                os._exit(3)
            return item

        with pytest.raises(ToolkitError, match=r"^test worker process \d+ ended with exit "
                                               r"code 3$"):
            mapped(range(4), here=True, fn=exiting)
        assert_no_child_left()

    @pytest.mark.parametrize("here", [False, True])
    def test_a_consumer_that_raises_leaves_no_child_or_descriptor(self, monkeypatch, here):
        # two children still have items to send when the consumer gives up
        monkeypatch.setattr(_util, "usable_cpus", lambda: 3)
        fds = open_descriptors()
        with pytest.raises(RuntimeError, match="consumer"):
            with _util.forked_map("test", square_where, range(30), here) as results:
                for value, _ in results:
                    if value == 4:
                        raise RuntimeError("consumer")
        assert_no_child_left()
        assert open_descriptors() == fds


class TestDumpJson:
    """dump_json writes numpy values as the plain values they hold: a
    float64 as float.__repr__ writes it, a float32 as the double it
    widens to, an array or a tuple as a list."""

    @pytest.mark.parametrize("value, text", [
        (np.float64(0.1), "0.1"),
        (np.float32(0.1), "0.10000000149011612"),
        (np.int64(7), "7"),
        (np.uint8(255), "255"),
        (np.int32(-3), "-3"),
        (np.array([1.0, 0.1]), "[\n  1.0,\n  0.1\n]"),
        (np.array([0.5], dtype=np.float32), "[\n  0.5\n]"),
        (np.array([], dtype=float), "[]"),
        (np.array([[1, 2], [3, 4]]), "[\n  [\n    1,\n    2\n  ],\n  [\n    3,\n    4\n  ]\n]"),
        ((1, np.float64(2.5)), "[\n  1,\n  2.5\n]"),
        ({"b": (np.int64(1),), "a": {"z": np.array([0.25]), "y": [np.float32(1.5), (2, 3.0)]}},
         '{\n  "a": {\n    "y": [\n      1.5,\n      [\n        2,\n        3.0\n      ]\n    ],\n'
         '    "z": [\n      0.25\n    ]\n  },\n  "b": [\n    1\n  ]\n}'),
    ], ids=["float64", "float32", "int64", "uint8", "int32", "array", "float32_array",
            "empty_array", "2d_array", "tuple", "nested"])
    def test_text(self, value, text):
        assert dump_json(value) == text + "\n"

    @pytest.mark.parametrize("value, text", [
        (np.array(2.5), "2.5"),
        ({"a": np.array(3)}, '{\n  "a": 3\n}'),
        (np.bool_(True), "true"),
    ], ids=["0d", "0d_in_dict", "bool_"])
    def test_zero_dimensional_arrays_and_numpy_bools_are_their_values(self, value, text):
        assert dump_json(value) == text + "\n"

    @pytest.mark.parametrize("report, where", [
        ({"a": np.array([1.0, np.nan])}, "a[1] is nan"),
        ({"t": (1.0, float("inf"))}, "t[1] is inf"),
        ({"m": np.array([[0.0, 1.0], [-np.inf, 2.0]])}, "m[1][0] is -inf"),
        ({"s": np.float32("nan")}, "s is nan"),
        ({"x": [(0.0,), {"k": (np.array([np.nan]),)}]}, "x[1].k[0][0] is nan"),
    ], ids=["array", "tuple", "2d_array", "float32", "nested"])
    def test_a_non_finite_value_in_an_array_or_a_tuple_is_named(self, report, where):
        with pytest.raises(NonFiniteReportError) as caught:
            dump_json(report)
        assert str(caught.value) == f"the value at {where}, not a finite number"


class TestFileModes:
    """atomic_writer leaves the mode a plain open(path, "w") would."""

    @pytest.fixture
    def umask(self, request):
        old = os.umask(request.param)
        yield request.param
        os.umask(old)

    @pytest.mark.parametrize("umask", [0o022, 0o077], indirect=True, ids=oct)
    def test_a_new_file_takes_the_umask(self, tmp_path, umask):
        atomic_write_text(str(tmp_path / "new.txt"), "text")
        assert stat.S_IMODE(os.stat(tmp_path / "new.txt").st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("umask", [0o022, 0o077], indirect=True, ids=oct)
    def test_an_existing_file_keeps_its_mode(self, tmp_path, umask):
        path = tmp_path / "kept.txt"
        path.write_text("old")
        os.chmod(path, 0o640)
        atomic_write_text(str(path), "new")
        assert path.read_text() == "new"
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert not list(tmp_path.glob(".tmp-*"))
