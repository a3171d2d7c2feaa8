"""The nonlinear-minus-linear gap run compares the states as they are marched.

Oracle: the comparison as it was made over a stored trajectory of
:func:`~bousslab.nonlinear.solve`, kept here as a test-local loop.
"""
from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bousslab import ExperimentConfig, solve, sobolev_norm
from bousslab.experiments import (_box_data, _model_params, _nl_spec,
                                  run_nl_vs_linear_gap)
from bousslab.symbols import propagator

ROOT = Path(__file__).resolve().parents[1]


def reduced_gap_config(**discretization) -> ExperimentConfig:
    """The shipped 2-D gap config on a 32^2 grid, with the given overrides."""
    cfg = json.loads((ROOT / "configs" / "nl_vs_linear_gap_2d.json").read_text())
    cfg["discretization"].update({"L": 60.0, "N": 32, "dt": 0.05, "T": 10.0,
                                  "out_every": 4, **discretization})
    cfg["analysis"]["fit_window"] = [1.0, cfg["discretization"]["T"]]
    return ExperimentConfig.from_dict(cfg)


def stored_gap_norms(cfg: ExperimentConfig) -> tuple[np.ndarray, ...]:
    """Times and the nonlinear, linear and gap norms from a stored trajectory."""
    d = cfg.discretization
    params = _model_params(cfg)
    grid, u0, u1 = _box_data(cfg)
    run = solve(u0, u1, d.T, d.dt, _nl_spec(cfg), params, out_every=d.out_every)
    y0 = run.spectra[0]
    nl_vals = sobolev_norm(grid, run.spectra[:, 0])
    diff_vals = np.zeros(run.times.size)
    lin_vals = np.zeros(run.times.size)
    for i, (t, y) in enumerate(zip(run.times, run.spectra)):
        sym = propagator(grid.xi2_half, float(t), params)
        lin_u = sym.sine * y0[1] + sym.cosine * y0[0]
        lin_vals[i] = sobolev_norm(grid, lin_u)
        diff_vals[i] = sobolev_norm(grid, y[0] - lin_u)
    return run.times, nl_vals, lin_vals, diff_vals


@pytest.mark.parametrize("out_every", [1, 3])
def test_gap_series_equal_the_stored_trajectory_comparison(out_every):
    # 200 steps: at a cadence of 3 the last output is off the cadence
    cfg = reduced_gap_config(out_every=out_every)
    report = run_nl_vs_linear_gap(cfg)
    times, *values = stored_gap_norms(cfg)
    series = {s.source: s for s in report.series if s.norm_kind == "sobolev2"}
    for source, expected in zip(("nonlinear", "linear", "nl_minus_linear"), values):
        assert np.array_equal(series[source].times, times)
        assert np.array_equal(series[source].values, expected)
    # the comparison segments are timed apart from the marching between them
    timings = report.timings
    assert min(timings["solve_s"], timings["compare_s"]) > 0.0
    assert timings["solve_s"] + timings["compare_s"] <= timings["total_s"]


def test_gap_run_never_holds_the_trajectory():
    # 401 output times: a stored trajectory of both fields would take
    # M x 2 x half-modes x 16 B = 7.0 MB; the streaming run peaks near 0.4 MB
    cfg = reduced_gap_config(T=40.0, dt=0.1, out_every=1)
    grid = _box_data(cfg)[0]
    trajectory_bytes = 401 * 2 * np.prod(grid.half_shape) * 16
    tracemalloc.start()
    try:
        report = run_nl_vs_linear_gap(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.series[0].times.size == 401
    assert peak < trajectory_bytes
