"""Small shared helpers: deterministic JSON, atomic file writes, and the
forked child processes a command spreads its work over."""

from __future__ import annotations

import contextlib
import ctypes
import errno
import itertools
import json
import math
import os
import pickle
import signal
import stat
import sys

import numpy as np

from .errors import DataError, NonFiniteReportError, SchemaError, ToolkitError


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity where the system
    reports one, else the machine's count. Tests fake it here."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def children(cap: int, here: bool = False) -> int:
    """How many children forked starts for work that splits at most cap
    ways: one per usable CPU, at most cap, less one where this process
    does a share itself (here); none where fork does not exist or only
    one process would work."""
    processes = min(usable_cpus(), cap) if hasattr(os, "fork") else 1
    return processes - here if processes > 1 else 0


class Child:
    """A forked child as its parent sees it: its pid, the write end of its
    command pipe and the read end of its answer pipe."""

    def __init__(self, what: str, pid: int, commands: int, answers: int):
        self.what, self.pid, self.commands = what, pid, commands
        self.answers = open(answers, "rb")
        self.code = None  # its exit code, once reaped

    def send(self, command: bytes) -> None:
        try:
            os.write(self.commands, command)
        except BrokenPipeError:
            raise self._lost() from None

    def receive(self):
        """The child's next answer, or the exception it raised, raised here;
        ToolkitError if it ended without one."""
        try:
            ok, value = pickle.load(self.answers)
        except (EOFError, pickle.UnpicklingError):
            raise self._lost() from None
        if not ok:
            raise value
        return value

    def _lost(self) -> ToolkitError:
        self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return ToolkitError(f"{self.what} worker process {self.pid} "
                            f"ended with exit code {self.code}")


_ENDING = (signal.SIGINT, signal.SIGTERM)


@contextlib.contextmanager
def forked(what: str, serve, cap: int, here: bool = False):
    """Run serve in children(cap, here) forked processes while the with
    block runs; yields their Child handles, none where that count is 0.
    Where a fork (or a pipe for it) fails, at the process limit say, it
    yields the children forked before, perhaps none, so a caller must give
    the same result with any number of them, doing the work itself with
    none.

    Child i of the n yielded sends this process each item serve(i, n,
    commands) gives, pickled, and the exception if serve raises; commands
    is the read end of its command pipe, whose first 8 bytes, n, this
    process writes once every fork is done. A child ignores SIGINT, which
    reaches the whole process group, takes SIGTERM's default action,
    closes every pipe end but its own two, and leaves by os._exit, so it
    never returns into the caller; an answer it cannot send ends it with
    exit code 1. When the block ends, every child not yet reaped is killed
    and reaped. SIGINT and SIGTERM wait while children are forked and
    ended, so that none outlives this process unknown to it. On Linux a
    child also gets SIGKILL when this process dies, even by SIGKILL.
    """
    if not (n := children(cap, here)):
        yield []
        return
    made, parent = [], os.getpid()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _ENDING)
    try:
        for i in range(n):
            fds = []
            try:
                fds += os.pipe()
                fds += os.pipe()
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                break
            command_r, command_w, answer_r, answer_w = fds
            if pid == 0:
                others = [fd for c in made for fd in (c.commands, c.answers.fileno())]
                _serve(serve, i, command_r, answer_w, mask, [command_w, answer_r, *others], parent)
            os.close(command_r)
            os.close(answer_w)
            made.append(Child(what, pid, command_w, answer_r))
        for child in made:
            child.send(len(made).to_bytes(8, "little"))
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield made
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, _ENDING)
        for child in made:
            os.close(child.commands)
            child.answers.close()
            if child.code is None:
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


@contextlib.contextmanager
def forked_map(what: str, fn, items, here: bool = False, cap: int | None = None):
    """Yield an iterator of fn(item) for each of items, a sequence, in
    item order, computed over forked processes (see forked; cap defaults
    to len(items)) and consumed inside the with block.

    Of n processes, process j computes items j, j + n, ... Where here is
    set this process is process 0, and computes its items as the iterator
    reaches them; with no child, every item is computed here. Leaving the
    block before the iterator ends kills every child.
    """

    def serve(i, n, _):
        return map(fn, items[i + here::n + here])

    cap = len(items) if cap is None else cap
    with forked(what, serve, cap, here) as workers:
        sources = [None] * here + workers or [None]  # None: this process
        yield (fn(item) if source is None else source.receive()
               for item, source in zip(items, itertools.cycle(sources)))


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _serve(serve, i: int, commands: int, answers: int, mask, others, parent: int) -> None:
    """A forked child's whole life: see forked."""
    code = 1
    try:
        if sys.platform.startswith("linux"):
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # the parent died before prctl took effect
            return
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in others:
            os.close(fd)
        n = int.from_bytes(os.read(commands, 8), "little")
        with open(answers, "wb") as out:
            for outcome in _outcomes(serve, (i, n, commands)) if n else ():
                pickle.dump(outcome, out)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _outcomes(serve, args):
    """(True, item) for each item of serve(*args), and last (False, exc)
    if serve raised exc."""
    try:
        for item in serve(*args):
            yield True, item
    except Exception as exc:
        yield False, exc


def dump_json(obj) -> str:
    """Serialize with sorted keys and round-trip-exact floats.

    json uses float.__repr__, the shortest string that parses back to the
    same IEEE-754 double, so dump -> load is bit-exact for finite values;
    a np.float64 is a float, and any other numpy value or array is written
    as the plain value or list its tolist() gives. A non-finite value
    raises NonFiniteReportError naming its key path rather than being
    written as a bare token.
    """
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_plain) + "\n"
    except ValueError:  # allow_nan=False refuses a nan or an infinity
        path, value = next((p, v) for p, v in _floats(obj, "") if not math.isfinite(v))
        raise NonFiniteReportError(
            f"the value at {path} is {value!r}, not a finite number") from None


def _plain(obj):
    """json.dumps' hook for what it cannot write itself: a numpy value."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _floats(obj, path: str):
    """(key path, value) of each float in obj, a tree of dicts, lists,
    tuples and numpy values, in the order dump_json writes them."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, float):
        yield path, obj
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _floats(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _floats(value, f"{path}[{i}]")


@contextlib.contextmanager
def atomic_writer(path: str):
    """Yield a text file that replaces path only when the block exits cleanly.

    The file is a temp file in path's directory, moved into place with
    os.replace, so readers never observe a partially written file even if
    the process dies mid-write. It takes the mode open(path, "w") would
    leave: an existing path's, else 0o666 less the umask. On any failure
    the temp file is removed and path keeps what it held; a write the file
    system refuses (a missing directory, no permission, a full disk)
    raises DataError naming the path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        # refused here, not by os.replace once the file is written, so that a
        # command that writes two files fails before it replaces either
        try:
            if stat.S_ISDIR(os.lstat(path).st_mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        except FileNotFoundError:
            if not os.path.basename(path):  # "" or "missing_dir/"
                raise
        name = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from None
        raise


def atomic_write_text(path: str, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text)


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
