"""Evaluation counting and span tracing at the library's module boundary.

Nothing here changes ``ostrowski``. While :func:`instrument` is active it
replaces, in every loaded ``ostrowski`` module that holds a reference:

- the evaluator factories ``toolkit.parse_function_spec`` and
  ``toolkit.make_breckner`` with versions whose ``Function1D`` evaluators
  report each call to a sink, with the number of points (``numpy.size`` of
  the argument, so array-taking evaluators are counted correctly) and the
  time spent inside;
- optionally, each public function of the traced layers with a wrapper that
  opens a span around the call.

Replacing the reference in every importing module (``cli`` imports
``run_sweep``'s helpers by name, ``means`` imports ``make_breckner`` and so
on) is what makes calls between modules visible, and module-global lookups
inside one module see the replacement too. Everything is restored on exit.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

_now = time.perf_counter_ns

#: (module, function names) whose calls become spans; ``None`` means every
#: public function in the module's ``__all__``. Names missing from a module
#: are skipped, so the tracer survives functions being merged or removed.
TRACED_LAYERS: Tuple[Tuple[str, Optional[Tuple[str, ...]]], ...] = (
    ("quadrature", ("certified_integrate", "composite_midpoint", "midpoint_error_bound")),
    ("toolkit", ("reference_integrate", "true_deviation", "check_sconvex")),
    ("bounds", None),
    ("kernel", None),
    ("means", None),
    ("cli", ("run_sweep", "main")),
)

EVALUATOR_FACTORIES = ("parse_function_spec", "make_breckner")


def n_points(t) -> int:
    """Number of points in an evaluator argument: 1 for a scalar."""
    return 1 if type(t) is float else int(np.size(t))


class EvalCounter:
    """Sink that counts evaluated points of f and f'."""

    def __init__(self) -> None:
        self.points = 0

    def record(self, kind: str, n: int, t0: int) -> None:
        self.points += n


def probe_evaluator(f: Callable, kind: str, sink) -> Callable:
    """Wrap one evaluator so every call reports (kind, points, start ns) to
    sink. The sink takes the clock again after its own bookkeeping, so the
    probe's cost is charged to the evaluator, not to the calling layer."""

    def probed(t):
        t0 = _now()
        try:
            return f(t)
        finally:
            sink.record(kind, n_points(t), t0)

    probed.probe_sink = sink
    return probed


def _probe_factory(factory: Callable, sink) -> Callable:
    def probed_factory(*args, **kwargs):
        fn = factory(*args, **kwargs)
        if getattr(fn.f, "probe_sink", None) is sink:
            return fn  # built by another probed factory (parse -> make_breckner)
        df = None if fn.df is None else probe_evaluator(fn.df, "df", sink)
        return dataclasses.replace(fn, f=probe_evaluator(fn.f, "f", sink), df=df)

    return probed_factory


class Tracer:
    """In-memory spans: name, parent, start and end, plus the evaluator time
    and points spent directly inside each span.

    Evaluator calls are not spans of their own (a certified integral makes
    over a million); their time and points are charged to the innermost
    open span instead, so a span's self time excludes the integrand.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.eval_ns = array("q")
        self.f_points = array("q")
        self.df_points = array("q")
        self._stack: List[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.eval_ns.append(0)
        self.f_points.append(0)
        self.df_points.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def record(self, kind: str, n: int, t0: int) -> None:
        # the runner opens a span around every operation, so one is open
        top = self._stack[-1]
        (self.f_points if kind == "f" else self.df_points)[top] += n
        self.eval_ns[top] += _now() - t0

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "eval_ns": np.frombuffer(self.eval_ns, dtype=np.int64),
            "f_points": np.frombuffer(self.f_points, dtype=np.int64),
            "df_points": np.frombuffer(self.df_points, dtype=np.int64),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total_ns, self_ns, and the f_points,
        df_points and eval_ns charged to it.

        Self time is a span's duration minus its child spans' durations
        minus the evaluator time charged to it.
        """
        arr = self.arrays()
        n = len(arr["start_ns"])
        dur = (arr["end_ns"] - arr["start_ns"]).astype(float)
        has_parent = arr["parent"] >= 0
        child = np.bincount(arr["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child - arr["eval_ns"]
        ids, k = arr["name_id"], len(self.names)

        def by_name(values) -> np.ndarray:
            return np.bincount(ids, weights=values, minlength=k)

        cols = {
            "calls": np.bincount(ids, minlength=k).astype(float),
            "total_ns": by_name(dur),
            "self_ns": by_name(self_ns),
            "f_points": by_name(arr["f_points"].astype(float)),
            "df_points": by_name(arr["df_points"].astype(float)),
            "eval_ns": by_name(arr["eval_ns"].astype(float)),
        }
        return {
            name: {col: float(vals[i]) for col, vals in cols.items()}
            for i, name in enumerate(self.names)
        }

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _loaded_library_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ostrowski" or name.startswith("ostrowski."))]


def _replace_everywhere(old, new, undo: list) -> None:
    for mod in _loaded_library_modules():
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
                undo.append((mod, name, old))


def _traced_functions(module) -> List[str]:
    for name, names in TRACED_LAYERS:
        if module.__name__ == f"ostrowski.{name}":
            if names is None:
                names = tuple(module.__all__)
            return [n for n in names
                    if callable(getattr(module, n, None))
                    and not isinstance(getattr(module, n), type)]
    return []


@contextmanager
def instrument(sink, tracer: Optional[Tracer] = None) -> Iterator[None]:
    """Probe the evaluator factories (reporting to sink) and, with a tracer,
    open a span around every call into the traced layers."""
    import ostrowski.cli  # noqa: F401  (load every module before patching)
    from ostrowski import quadrature, toolkit

    undo: list = []
    try:
        for name in EVALUATOR_FACTORIES:
            orig = getattr(toolkit, name)
            _replace_everywhere(orig, _probe_factory(orig, sink), undo)
        if tracer is not None:
            for layer, _ in TRACED_LAYERS:
                mod = sys.modules[f"ostrowski.{layer}"]
                for fname in _traced_functions(mod):
                    orig = getattr(mod, fname)
                    _replace_everywhere(orig, tracer.wrap(f"{layer}.{fname}", orig), undo)
            partition = getattr(quadrature, "Partition", None)
            uniform = partition.__dict__.get("uniform") if partition else None
            if isinstance(uniform, classmethod):
                partition.uniform = classmethod(
                    tracer.wrap("quadrature.Partition.uniform", uniform.__func__))
                undo.append((partition, "uniform", uniform))
        yield
    finally:
        for owner, name, old in reversed(undo):
            setattr(owner, name, old)
