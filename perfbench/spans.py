"""In-memory span tracing of the package's layers, one module per layer.

``Tracer.install`` replaces every public function of each layer module
with a wrapper that records one span per call: the function, its start
and end on the monotonic clock, the span it was called from and the op
id the benchmark set.  The same wrapper also replaces the name wherever a
consumer module imported the function directly (``asymptotics.digamma``,
``ldp.entropy_J``, ``process.mean_increments``, ...), so every call path
is covered.  Spans live in flat arrays until ``dump`` writes them out;
``self_times`` turns them into self time: a span's duration minus the
durations of its direct children.

Nothing under ``src/`` is changed: the wrappers are installed and removed
at run time from the benchmark's own files.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time
import types
from array import array
from typing import Callable, Dict, Optional

import numpy as np

PACKAGE = "circjacobi"
LAYERS = (
    "specfun",
    "gammalaw",
    "sampler",
    "process",
    "asymptotics",
    "ldp",
    "equilibrium",
    "cli",
)

GAMMA_FUNCS = ("log_gamma", "digamma", "polygamma")
ENTROPY_FUNCS = ("entropy_J", "entropy_F")


def _gamma_args(tracer, args, kwargs, result, exc):
    z = args[1] if len(args) > 1 else kwargs.get("z", args[0] if args else 0)
    return int(np.size(z))


def _coeffs(tracer, args, kwargs, result, exc):
    """Coefficients one sampler call returned."""
    if exc is not None or result is None:
        return 0
    gamma = getattr(result, "gamma", result)
    if isinstance(gamma, (complex, float)):
        return 1
    return int(np.size(gamma))


def _moment_row(tracer, args, kwargs, result, exc):
    params = args[0]
    from circjacobi.asymptotics import CROSSOVER_N

    route = "rows_abel_plana" if params.n > CROSSOVER_N else "rows_direct"
    tracer.counters["asymptotics." + route] += 1
    return 0


def _rate_point(tracer, args, kwargs, result, exc):
    from circjacobi.ldp import SolverError

    if exc is None:
        tracer.counters["ldp.branch_" + result.branch.value] += 1
    elif isinstance(exc, SolverError):
        tracer.counters["ldp.unsolved"] += 1
    else:
        tracer.counters["ldp.errors"] += 1
    return 0


# Per-function hooks run after the call; the value they return is stored
# as the span's size (array elements, coefficients).
HOOKS: Dict[str, Callable] = {
    **{f"specfun.{name}": _gamma_args for name in GAMMA_FUNCS},
    "sampler.ensemble_gammas": _coeffs,
    "sampler.sample_gamma_disc": _coeffs,
    "sampler.sample_gamma_circle": _coeffs,
    "sampler.sample_ensemble": _coeffs,
    "sampler.sample_ensemble_batch": _coeffs,
    "asymptotics.exact_mean_logphi": _moment_row,
    "ldp.marginal_rate_h": _rate_point,
}


class Tracer:
    """Spans recorded in flat arrays: span i has function ``fn[i]``
    (an index into ``names``), ``start[i]``/``end[i]`` in ns, ``parent[i]``
    (-1 for a call made by the benchmark itself), ``op[i]``, ``size[i]``
    and ``raised[i]``."""

    def __init__(self):
        self.names: list = []
        self.fn = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.raised = array("b")
        self.counters: collections.Counter = collections.Counter()
        self.op_id = -1
        self._stack: list = []
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.fn)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, index: int, func: Callable, hook: Optional[Callable]):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = len(self.fn)
            self.fn.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            self.size.append(0)
            self.raised.append(0)
            stack.append(span)
            exc = result = None
            self.start[span] = clock()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                self.raised[span] = 1
                raise
            finally:
                self.end[span] = clock()
                stack.pop()
                if hook is not None:
                    self.size[span] = hook(self, args, kwargs, result, exc)

        return traced

    def install(self) -> "Tracer":
        """Wrap every public function (module level, no leading underscore)
        of every layer, in every loaded module of the package that holds a
        reference to it."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, func in list(vars(module).items()):
                if (
                    not name.startswith("_")
                    and isinstance(func, types.FunctionType)
                    and func.__module__ == module.__name__
                ):
                    key = f"{layer}.{name}"
                    self.names.append(key)
                    originals[id(func)] = self._wrap(
                        len(self.names) - 1, func, HOOKS.get(key)
                    )
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------- output

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def dump(self, path) -> None:
        """Write every span, with the function names, to one ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start_ns, end_ns, parent) -> np.ndarray:
    """Self time of each span in ns: its duration minus the durations of
    the spans whose parent it is."""
    start_ns = np.asarray(start_ns, dtype=np.int64)
    dur = np.asarray(end_ns, dtype=np.int64) - start_ns
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer counts and self times (seconds) over every recorded span."""
    arr = tracer.arrays()
    fn, parent = arr["fn"], arr["parent"]
    span_names = np.array(tracer.names, dtype=object)[fn]
    span_layer = np.array([n.split(".", 1)[0] for n in tracer.names], dtype=object)[fn]
    own = self_times(arr["start_ns"], arr["end_ns"], parent) / 1e9
    raised = arr["raised"].astype(bool)
    size = arr["size"]

    def pick(mask):
        return int(np.count_nonzero(mask)), float(own[mask].sum())

    out: Dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s = pick(span_layer == layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.failures"] = int(np.count_nonzero(raised & (span_layer == layer)))

    # Coefficients are counted at the outermost sampler call only, so a
    # helper that calls another sampler function is not counted twice.
    sampler = span_layer == "sampler"
    outer = np.ones(fn.size, dtype=bool)
    nested = parent >= 0
    outer[nested] = span_layer[parent[nested]] != "sampler"
    out["sampler.coeffs"] = int(size[sampler & outer].sum())
    out["sampler.coeffs_per_s"] = (
        out["sampler.coeffs"] / out["sampler.self_s"] if out["sampler.self_s"] > 0 else 0.0
    )

    gamma = np.isin(span_names, [f"specfun.{n}" for n in GAMMA_FUNCS])
    out["specfun.gamma_calls"], out["specfun.gamma_self_s"] = pick(gamma)
    out["specfun.gamma_args"] = int(size[gamma].sum())
    ap = span_names == "specfun.abel_plana_sum"
    out["specfun.abel_plana_calls"], out["specfun.abel_plana_self_s"] = pick(ap)
    ent = np.isin(span_names, [f"specfun.{n}" for n in ENTROPY_FUNCS])
    out["specfun.entropy_calls"], out["specfun.entropy_self_s"] = pick(ent)

    for key in (
        "asymptotics.rows_direct",
        "asymptotics.rows_abel_plana",
        "ldp.branch_interior",
        "ldp.branch_linear",
        "ldp.branch_infinite",
        "ldp.unsolved",
        "ldp.errors",
    ):
        out[key] = tracer.counters[key]
    return out
