"""Tests of the benchmark's own code: span arithmetic, tracer, checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from pass_runner import run_pass  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_children_union():
    # A[0,10] has children B[1,4] and C[3,6] that overlap (two threads);
    # B has child D[2,3]; E[7,8] is a second, disjoint child of A.
    spans = [[0, 0.0, 10.0, -1, 0],
             [1, 1.0, 4.0, 0, 0],
             [2, 3.0, 6.0, 0, 0],
             [3, 2.0, 3.0, 1, 0],
             [4, 7.0, 8.0, 0, 0]]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 1])


def test_layer_calls_and_busy_count_outermost_spans_only():
    names = ["experiments.run_experiment", "spectral.l2_norm", "spectral.norm",
             "fft.numpy.fft.fftn"]
    spans = [[0, 0.0, 10.0, -1, 0],
             [1, 1.0, 5.0, 0, 0],   # l2_norm -> norm -> fftn
             [2, 2.0, 4.0, 1, 0],
             [3, 2.5, 3.5, 2, 64],
             [2, 6.0, 7.0, 0, 0]]   # a direct call of norm
    m = layer_metrics(names, spans, (0.0, 10.0))
    assert m["spectral.norms.calls"] == 2
    assert m["spectral.norms.self_s"] == pytest.approx(5.0 - 1.0)
    assert m["fft.calls"] == 1 and m["fft.points"] == 64
    assert m["fft.busy_s"] == pytest.approx(1.0)
    assert m["fft.bytes_computed"] == 64 * 32
    assert m["experiments.run_experiment.self_s"] == pytest.approx(5.0)
    assert m["trace.coverage"] == pytest.approx(1.0)
    # layers whose functions do not exist report nothing
    assert "symbols.propagator.calls" not in m


def test_tracer_rebinds_imported_names_and_restores_them():
    import numpy as np
    import bousslab.linear as linear
    import bousslab.symbols as symbols

    originals = (symbols.propagator, linear.propagator, np.fft.fftn)
    assert linear.propagator is symbols.propagator
    tracer = Tracer()
    with tracer.installed():
        assert linear.propagator is symbols.propagator
        assert linear.propagator is not originals[0]
        symbols.propagator(np.ones(3), np.zeros((2, 1)), symbols.ModelParams())
        np.fft.fftn(np.ones((4, 4)))
    assert (symbols.propagator, linear.propagator, np.fft.fftn) == originals
    counts = layer_metrics(tracer.names, tracer.spans, (0.0, 1.0))
    assert counts["symbols.propagator.calls"] == 1
    assert counts["symbols.propagator.points"] == 6
    assert counts["fft.points"] == 16


def test_smoke_tiny_config_through_tracer(tmp_path):
    cfg = {"experiment": "nonlinear_rates", "seed": 0,
           "discretization": {"n": 1, "L": 40.0, "N": 32, "dt": 0.1, "T": 1.0},
           "data": {"kind": "gaussian", "amplitude": 0.001, "width": 1.0},
           "analysis": {"k_list": [0], "fit_window": [0.1, 1.0]}}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    tracer = Tracer()
    res = run_pass([path], seed=3, out_dir=tmp_path / "out", tracer=tracer)
    assert res["configs"] == ["tiny"]
    assert {"report.json", "series.csv", "rates.csv"} <= {
        p.name for p in (tmp_path / "out" / "tiny").iterdir()}
    report = json.loads((tmp_path / "out" / "tiny" / "report.json").read_text())
    assert report["config"]["seed"] == 3
    m = layer_metrics(tracer.names, tracer.spans, tuple(res["window"]))
    assert m["nonlinear.solve.calls"] == 1 and m["nonlinear.solve.steps"] == 10
    assert m["fft.calls"] > 0 and m["config.load_config.busy_s"] > 0
    assert m["reporting.write.busy_s"] > 0
    assert 0.5 < m["trace.coverage"] <= 1.0 + 1e-9


def test_tol_used_shares():
    report = {
        "config": {"analysis": {"slope_tol": 0.1, "c_floor": 0.1}},
        "fits": [{"label": "linear:k1:sobolev2", "k": 1, "slope": -0.55,
                  "theory_slope": -0.5},
                 {"label": "linear:k0:sobolev2", "k": 0, "slope": -0.046,
                  "theory_slope": 0.0}],
        "certificates": [{"which": "sine_envelope", "fitted_c": 0.5,
                          "sup_ratio": 10.0, "cap": 1000.0}],
        "verdicts": [
            {"criterion": "AC5", "name": "slope[linear:k1:sobolev2]", "status": "pass"},
            {"criterion": "AC5", "name": "slope[linear:k0:sobolev2]", "status": "pass"},
            {"criterion": "AC3", "name": "certificate[sine_envelope]", "status": "pass"},
            {"criterion": "AC9", "name": "picard_contraction", "status": "pass",
             "value": 0.1, "threshold": 0.5},
            {"criterion": "AC7", "name": "data_smallness", "status": "pass",
             "value": 0.0099, "threshold": 0.01},
        ]}
    assert run.tol_used(report) == pytest.approx(0.5)
    report["verdicts"][0]["status"] = "info"
    assert run.tol_used(report) == pytest.approx(0.2)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
