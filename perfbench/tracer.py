"""Span tracer that measures bousslab's layers from outside the package.

``Tracer.installed()`` wraps every public function defined in a ``bousslab``
module, plus the ``numpy.fft`` and ``scipy.fft`` transform entry points, and
rebinds each wrapper wherever a ``bousslab`` module holds the original by name
(``from .symbols import propagator`` and the like), so calls made through
either binding are recorded.  Leaving the context restores every binding.
Spans are kept in memory as ``[name_id, start, end, parent, work]`` rows and
written by the caller when the traced run ends.

``layer_metrics`` turns the spans of one run into the per-layer figures the
benchmark reports: ``calls`` (outermost entries into a layer), ``busy_s``
(inclusive time of those entries), ``self_s`` (time not covered by child
spans) and a work count (``points`` or ``steps``).  A layer whose functions
no longer exist yields no metrics instead of an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

PACKAGE = "bousslab"
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
#: bytes computed per transformed point: a complex128 input and output
FFT_BYTES_PER_POINT = 16 * 2


def _fft_points(args: tuple, kwargs: dict) -> int:
    a = args[0] if args else kwargs.get("a", kwargs.get("x"))
    size = getattr(a, "size", None)
    if isinstance(size, int):
        return size
    import numpy as np
    return int(np.size(a))


def _broadcast_size(a: dict) -> int:
    import numpy as np
    return np.broadcast(a["xi2"], a["t"]).size


#: work counted per span, by span name, from the call's bound arguments
WORK_COUNTS: dict[str, Callable[[dict], int]] = {
    "symbols.propagator": _broadcast_size,
    "nonlinear.solve": lambda a: round(a["T"] / a["dt"]),
}


def _bound_work(fn: Callable, count: Callable[[dict], int]) -> Callable[[tuple, dict], int]:
    sig = inspect.signature(fn)

    def work(args: tuple, kwargs: dict) -> int:
        try:
            return int(count(sig.bind(*args, **kwargs).arguments))
        except (TypeError, ValueError, KeyError, ZeroDivisionError):
            return 0
    return work


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self._leaf_ids: set[int] = set()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             work: Callable[[tuple, dict], int] | None = None,
             leaf: bool = False) -> Callable:
        """Return ``fn`` recording one span per call under ``name``.

        A ``leaf`` wrapper records nothing when called from inside another
        leaf span, so a transform entry point that calls another one is
        counted once.
        """
        nid = len(self.names)
        self.names.append(name)
        if leaf:
            self._leaf_ids.add(nid)
        spans, leaf_ids, clock = self.spans, self._leaf_ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            if leaf and parent >= 0 and spans[parent][0] in leaf_ids:
                return fn(*args, **kwargs)
            row = [nid, 0.0, 0.0, parent,
                   work(args, kwargs) if work is not None else 0]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
        return traced

    @contextmanager
    def installed(self, package: str = PACKAGE) -> Iterator["Tracer"]:
        """Wrap the package's public functions and the FFT entry points."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None
                   and (name == package or name.startswith(package + "."))]
        fft_mods = [importlib.import_module(m) for m in FFT_MODULES]
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for mod in modules:
            short = mod.__name__[len(package) + 1:]
            for attr, obj in sorted(vars(mod).items()):
                if (not short or attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or id(obj) in wrappers):
                    continue
                name = f"{short}.{attr}"
                count = WORK_COUNTS.get(name)
                work = _bound_work(obj, count) if count is not None else None
                wrappers[id(obj)] = (obj, self.wrap(obj, name, work))
        for mod in fft_mods:
            for attr in FFT_FUNCS:
                fn = getattr(mod, attr, None)
                if callable(fn) and id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self.wrap(fn, f"fft.{mod.__name__}.{attr}",
                                                      _fft_points, leaf=True))
        patched: list[tuple[object, str, object]] = []
        try:
            for mod in modules + fft_mods:
                for attr, obj in list(vars(mod).items()):
                    entry = wrappers.get(id(obj))
                    if entry is not None and entry[0] is obj:
                        setattr(mod, attr, entry[1])
                        patched.append((mod, attr, obj))
            yield self
        finally:
            for mod, attr, obj in reversed(patched):
                setattr(mod, attr, obj)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one span may overlap (spans opened by worker threads), so the
    covered part is the union of the child intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for row in spans:
        if row[3] >= 0:
            children.setdefault(row[3], []).append((row[1], row[2]))
    out = []
    for i, row in enumerate(spans):
        start, end = row[1], row[2]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


#: per-layer metrics: layer -> (predicate on span names, stats reported)
LAYERS: dict[str, tuple[Callable[[str], bool], tuple[str, ...]]] = {}


def _layer(key: str, stats: tuple[str, ...],
           member: Callable[[str], bool] | None = None) -> None:
    LAYERS[key] = (member or (lambda n, key=key: n == key), stats)


_layer("config.load_config", ("busy_s",))
_layer("spectral.forward_transform", ("calls", "self_s"))
_layer("spectral.inverse_transform", ("calls", "self_s"))
_layer("spectral.norms", ("calls", "self_s"),
       lambda n: n.startswith("spectral.") and n.endswith("norm"))
_layer("fft", ("calls", "busy_s", "points", "bytes_computed"),
       lambda n: n.startswith("fft."))
_layer("symbols.propagator", ("calls", "self_s", "points"))
_layer("symbols.characteristic_roots", ("calls", "self_s"))
_layer("symbols.phi_divided_difference", ("calls", "self_s"))
_layer("symbols.profile_symbols", ("calls", "self_s"))
_layer("linear.linear_solution", ("calls", "busy_s", "self_s"))
_layer("linear.linear_norm_radial", ("calls", "busy_s", "self_s"))
_layer("nonlinear.solve", ("calls", "busy_s", "self_s", "steps"))
_layer("nonlinear.reference_solve", ("busy_s", "self_s"))
_layer("nonlinear.picard_iterate", ("calls", "busy_s", "self_s"))
_layer("nonlinear.linear_trajectory", ("busy_s",))
for _fn in ("radial_decay_series", "decay_series", "xnorm_proxy", "certify_bound",
            "product_estimate_check", "initial_data_size"):
    _layer(f"analysis.{_fn}", ("busy_s",))
_layer("analysis.fit_rate", ("calls", "busy_s"))
_layer("experiments.run_experiment", ("busy_s", "self_s"))
_layer("reporting.write", ("busy_s",), lambda n: n.startswith("reporting.write_"))
_layer("reporting.plot_run_svgs", ("busy_s",))


def layer_metrics(names: Sequence[str], spans: Sequence[Sequence],
                  window: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed ``<layer>.<stat>``.

    ``window`` is the run's measured interval; ``trace.coverage`` is the sum
    of the self times of spans that start inside it over its length.
    """
    selfs = self_times(spans)
    members: dict[str, set[int]] = {}
    layers_of: dict[int, list[str]] = {}
    for key, (member, _) in LAYERS.items():
        ids = {i for i, n in enumerate(names) if member(n)}
        if ids:
            members[key] = ids
            for i in ids:
                layers_of.setdefault(i, []).append(key)
    acc = {key: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0}
           for key in members}
    for i, row in enumerate(spans):
        for key in layers_of.get(row[0], ()):
            a, ids = acc[key], members[key]
            a["self_s"] += selfs[i]
            p = row[3]
            while p >= 0 and spans[p][0] not in ids:
                p = spans[p][3]
            if p < 0:
                a["calls"] += 1
                a["busy_s"] += row[2] - row[1]
                a["work"] += row[4]
    out: dict[str, float] = {}
    for key, a in acc.items():
        a["points"] = a["steps"] = a["work"]
        a["bytes_computed"] = a["work"] * FFT_BYTES_PER_POINT
        for stat in LAYERS[key][1]:
            out[f"{key}.{stat}"] = a[stat]
    lo, hi = window
    inside = sum(s for s, row in zip(selfs, spans) if lo <= row[1] <= hi)
    out["trace.coverage"] = inside / (hi - lo) if hi > lo else 0.0
    return out
