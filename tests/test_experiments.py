"""The run path, and the gap run that compares the states as they are marched.

:func:`~bousslab.experiments.run_experiment` owns each run's report and its
clock; the runners add their phase timings through ``_phase``.  Oracle for
the gap run: the comparison as it was made over a stored trajectory of
:func:`~bousslab.nonlinear.solve`, kept here as a test-local loop.
"""
from __future__ import annotations

import dataclasses
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bousslab import ExperimentConfig, load_config, solve, sobolev_norm
from bousslab.experiments import (RunReport, _box_data, _model_params, _nl_spec,
                                  _phase, run_experiment)
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
    report = run_experiment(cfg)
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
        report = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.series[0].times.size == 401
    assert peak < trajectory_bytes


def test_phase_accumulates_over_re_entered_blocks():
    report = RunReport("x", {})
    start = time.perf_counter()
    for _ in range(3):
        with _phase(report, "work_s"):
            time.sleep(0.01)
    elapsed = time.perf_counter() - start
    assert list(report.timings) == ["work_s"]
    assert 0.03 <= report.timings["work_s"] <= elapsed


@pytest.mark.parametrize("name, phases", [
    ("lemma_certify", {"certify_s", "products_s"}),
    ("oracle_crosscheck", {"symbols_s", "reference_s", "picard_s"}),
])
def test_timing_keys_are_the_documented_phases(name, phases):
    report = run_experiment(load_config(ROOT / "configs" / f"{name}.json"))
    timings = report.timings
    assert set(timings) == phases | {"total_s"}
    assert min(timings.values()) > 0.0
    assert sum(timings[key] for key in phases) <= timings["total_s"]


def test_crosscheck_passes_ac1_when_a_sample_is_near_confluence():
    # at seed 568 one of the 500 AC1 samples is dropped as near-confluent;
    # the root sum and product still cover all 500
    cfg = load_config(ROOT / "configs" / "oracle_crosscheck.json")
    report = run_experiment(dataclasses.replace(cfg, seed=568))
    ac1 = {v["name"]: v for v in report.verdicts if v["criterion"] == "AC1"}
    assert set(ac1) == {"kernel_ode_residual", "kernel_initial_values",
                        "root_sum_product"}
    assert all(v["status"] == "pass" for v in ac1.values())
    assert "on 499 samples" in ac1["kernel_ode_residual"]["detail"]
