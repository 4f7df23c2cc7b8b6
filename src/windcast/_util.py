"""Small shared helpers: deterministic JSON, atomic file writes and the
number of CPUs a command may spread its work over."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

import numpy as np

from .errors import DataError, SchemaError


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity where the system
    reports one, else the machine's count. Tests fake it here."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def jsonable(obj):
    """Recursively convert numpy scalars/arrays into plain Python types."""
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def dump_json(obj) -> str:
    """Serialize with sorted keys and round-trip-exact floats.

    json uses float.__repr__, the shortest string that parses back to the
    same IEEE-754 double, so dump -> load is bit-exact for finite values.
    Non-finite values are rejected rather than written as bare tokens.
    """
    return json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


@contextlib.contextmanager
def atomic_writer(path: str):
    """Yield a text file that replaces path only when the block exits cleanly.

    The file is a temp file in path's directory, moved into place with
    os.replace, so readers never observe a partially written file even if
    the process dies mid-write. On any failure the temp file is removed
    and path keeps what it held; a write the file system refuses (a
    missing directory, no permission, a full disk) raises DataError
    naming the path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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


def write_json(path: str, obj) -> None:
    atomic_write_text(path, dump_json(obj))


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
