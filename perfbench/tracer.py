"""Span tracing of windcast's public functions, installed from outside the package.

A wrapper is rebound in every ``windcast`` module that holds the original
function object: ``forward``, for example, is imported by name into
``network``'s callers ``optim`` and ``pipeline`` and re-exported by the
package, and each of those names must point at the wrapper. Two methods
that carry the hot work, ``Loss.value_and_grad`` and ``Optimizer.step``,
are wrapped as class attributes.

Spans are kept in memory as ``[label, start, end, parent, amount]`` lists,
where ``parent`` is the index of the enclosing span (-1 at the root) and
``amount`` is the work the call did (rows or bytes) when the label counts
any. The worker writes them out once, when its command has finished.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

_clock = time.perf_counter


def _forward_label(args, kwargs):
    return "network.forward_grad" if kwargs.get("want_cache") else "network.forward_eval"


def _rows_in(args, kwargs, result):
    return len(args[1])


def _rows_out(args, kwargs, result):
    return len(result)


# The CSV and JSON text windcast writes is ASCII, so its length in
# characters is its size in bytes; encoding it here would charge the
# tracer's own copy to the enclosing span.
def _bytes_out(args, kwargs, result):
    return len(result)


def _bytes_in(args, kwargs, result):
    return len(args[1])


# (module, attribute, label or label function, amount function or None)
FUNCTIONS = (
    ("windcast.cli", "main", "cli.main", None),
    ("windcast.config", "load_config", "config.load", None),
    ("windcast.data", "load_csv", "data.load_csv", _rows_out),
    ("windcast.data", "fit_scaler", "data.prepare", None),
    ("windcast.data", "apply_scaler", "data.prepare", None),
    ("windcast.data", "make_lag_windows", "data.prepare", None),
    ("windcast.data", "make_nwp_set", "data.prepare", None),
    ("windcast.data", "chronological_split", "data.prepare", None),
    ("windcast.network", "forward", _forward_label, _rows_in),
    ("windcast.network", "backward", "network.backward", None),
    ("windcast.network", "predict_quantiles", "network.predict_quantiles", None),
    ("windcast.optim", "train", "optim.train", None),
    ("windcast.pipeline", "build_dataset", "pipeline.build_dataset", None),
    ("windcast.pipeline", "predictions_csv", "pipeline.predictions_csv", _bytes_out),
    ("windcast.pipeline", "run_benchmark", "pipeline.run_benchmark", None),
    ("windcast.metrics", "deterministic_report", "metrics.report", None),
    ("windcast.metrics", "probabilistic_report", "metrics.report", None),
    ("windcast.explain", "permutation_importance", "explain.pfi", None),
    ("windcast.explain", "fit_lime", "explain.lime", None),
    ("windcast.model_io", "save_model", "model_io.save", None),
    ("windcast.model_io", "load_model", "model_io.load", None),
    ("windcast._util", "atomic_write_text", "io.write", _bytes_in),
)

# (module, class, method, label)
METHODS = (
    ("windcast.network", "Loss", "value_and_grad", "network.loss"),
    ("windcast.optim", "Optimizer", "step", "optim.step"),
)


def windcast_modules() -> list:
    """Every loaded module of the windcast package, the package included."""
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "windcast" or name.startswith("windcast.")
    ]


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, label, fn, amount=None):
        """Return fn wrapped so that each call records a span."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                open_.pop()
            if amount is not None:
                span[4] = amount(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function and method to its wrapper."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("windcast.cli")
        modules = windcast_modules()
        for module_name, attr, label, amount in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(label, original, amount)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)
        for module_name, class_name, attr, label in METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(label, original))

    def remove(self) -> None:
        """Restore every name that install() rebound."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Everything runs in one thread, so the children of a span never
    overlap and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, covered)]


def has_ancestor(spans, index: int, label: str) -> bool:
    """True when a span enclosing spans[index] carries the given label."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == label:
            return True
        parent = spans[parent][3]
    return False
