"""The package still offers every layer the benchmark measures.

``perfbench/tracer.py`` finds its layers by name: a ``per_layer`` metric of
``BENCHMARK.json`` exists only while the function it names is a public
function defined in that module, and the tracer's work counts bind to the
parameter names of ``propagator`` and ``solve``.  A renamed or deleted
function drops its metrics without an error, so these tests pin the names.
They read ``perfbench/`` and ``BENCHMARK.json`` and change neither.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np

import bousslab
from bousslab import (ModelParams, NonlinearitySpec, PhysicalField, load_config,
                      make_grid)

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("analysis", "cli", "config", "experiments", "linear", "nonlinear",
           "reporting", "spectral", "symbols")
#: per-layer metrics that the benchmark runner adds to the tracer's
OUTSIDE_TRACER = {"reporting.bytes_written", "trace.overhead_s"}


def tracer_module():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def declared_layer_metrics() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


def traced_layer_metrics() -> set[str]:
    """The per-layer metric names a traced run of the package can report."""
    tracer = tracer_module()
    for name in MODULES:
        importlib.import_module(f"bousslab.{name}")
    t = tracer.Tracer()
    with t.installed():
        pass
    return set(tracer.layer_metrics(t.names, [], (0.0, 1.0)))


def test_every_declared_layer_metric_has_its_function():
    missing = declared_layer_metrics() - traced_layer_metrics() - OUTSIDE_TRACER
    assert sorted(missing) == []
    assert traced_layer_metrics() | OUTSIDE_TRACER == declared_layer_metrics()


def test_work_counts_bind_to_the_parameter_names():
    counts = tracer_module().WORK_COUNTS
    g = make_grid(1, 10.0, 16)
    args = inspect.signature(bousslab.symbols.propagator).bind(
        g.xi2_half, np.zeros((3, 1)), ModelParams()).arguments
    assert counts["symbols.propagator"](args) == 3 * g.half_shape[0]
    z = PhysicalField.zero(g)
    args = inspect.signature(bousslab.nonlinear.solve).bind(
        z, z, 2.0, 0.1, NonlinearitySpec(), ModelParams()).arguments
    assert counts["nonlinear.solve"](args) == 20


def test_run_experiment_takes_the_benchmark_thread_count():
    cfg = load_config(ROOT / "configs" / "lemma_certify.json")
    inspect.signature(bousslab.experiments.run_experiment).bind(cfg, threads=1)
