"""The run path, the gap run that compares the states as they are marched,
and the verdict rows declared through ``_gate``.

:func:`~bousslab.experiments.run_experiment` owns each run's report and its
clock; the runners add their phase timings through ``_phase``.  Oracle for
the gap run: the comparison as it was made over a stored trajectory of
:func:`~bousslab.nonlinear.solve`, kept here as a test-local loop.  Oracle
for the gated rows' share of tolerance: the benchmark's own ``tol_used``
(``perfbench/run.py``), which re-derives it from the verdict names and the
config echo, imported unchanged.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bousslab import (BOUND_KINDS, ExperimentConfig, ModelParams, certify_bound,
                      default_certify_grids, load_config, solve, sobolev_norm)
from bousslab import experiments
from bousslab.experiments import (RunReport, _box_data, _gate, _model_params,
                                  _nl_spec, _phase, run_experiment)
from bousslab.reporting import write_report_json
from bousslab.symbols import propagator

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))


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


def test_run_experiment_takes_one_thread_only():
    cfg = load_config(ROOT / "configs" / "lemma_certify.json")
    with pytest.raises(ValueError, match="one thread"):
        run_experiment(cfg, threads=2)


@pytest.mark.parametrize("alpha, cap, r0", [(-2.0, 1e3, 0.5), (-1.0, 1e4, 0.25)])
def test_edited_lemma_certify_gives_the_direct_certificates(alpha, cap, r0):
    # an edited config is the route to certificates at other alpha, cap and r0
    cfg = json.loads((ROOT / "configs" / "lemma_certify.json").read_text())
    cfg["model"]["alpha"] = alpha
    cfg["analysis"].update(cap=cap, r0=r0)
    report = run_experiment(ExperimentConfig.from_dict(cfg))
    xi, t = default_certify_grids()
    direct = [dataclasses.asdict(certify_bound(which, xi, t, experiments._C_CANDIDATES,
                                               ModelParams(alpha=alpha), r0=r0, cap=cap))
              for which in BOUND_KINDS]
    assert report.certificates == direct
    assert all(cert["passed"] for cert in direct)


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


# ---------------------------------------------------------------------------
# gated verdict rows
# ---------------------------------------------------------------------------


def gated(value, rule, *also) -> dict:
    report = RunReport("x", {})
    status = _gate(report, "AC0", "row", value, rule, "x", *also)
    (row,) = report.verdicts
    assert row["status"] == status
    return row


@pytest.mark.parametrize("rule, edge, outward, status, threshold", [
    (("at_most", 0.5), 0.5, 1.0, "pass", 0.5),
    (("below", 0.5), 0.5, 1.0, "fail", 0.5),
    (("at_least", 0.5), 0.5, -1.0, "pass", 0.5),
    (("within", -0.5, 0.25), 0.25, 1.0, "pass", [-0.5, 0.25]),
    (("within", -0.5, 0.25), -0.5, -1.0, "pass", [-0.5, 0.25]),
    (("near", -0.5, 0.25), -0.25, 1.0, "pass", 0.25),
    (("near", -0.5, 0.25), -0.75, -1.0, "pass", 0.25),
], ids=["at_most", "below", "at_least", "within_hi", "within_lo", "near_hi",
        "near_lo"])
def test_gate_at_its_boundary(rule, edge, outward, status, threshold):
    # the boundary value uses the whole tolerance; a step outward fails
    row = gated(edge, rule)
    assert (row["status"], row["value"], row["threshold"], row["used"]) == (
        status, edge, threshold, 1.0)
    past = gated(edge + outward * 1e-12, rule)
    assert past["status"] == "fail" and past["used"] > 1.0


@pytest.mark.parametrize("rule", [("at_most", 1.0), ("below", 1.0),
                                  ("at_least", 1.0), ("within", -1.0, 1.0),
                                  ("near", 0.0, 1.0)],
                         ids=lambda r: r[0])
def test_gate_fails_a_nan_value_using_an_infinite_share(rule):
    row = gated(math.nan, rule)
    assert row["status"] == "fail" and row["used"] == math.inf
    assert "x = nan" in row["detail"]


def test_gate_shares_and_detail():
    # a shrinking trend uses none of an upper bound, as perfbench reads AC8
    assert gated(-0.2, ("at_most", 0.05))["used"] == 0.0
    assert gated(0.2, ("at_least", 0.1))["used"] == 0.5
    assert gated(-0.4, ("near", -0.5, 0.25))["detail"] == "x = -0.4 within -0.5 +- 0.25"
    # a certificate: the row keeps its first value and threshold, must meet
    # both checks, and uses the larger share
    row = gated(0.5, ("at_least", 0.1), (20.0, ("at_most", 1000.0), "sup C"))
    assert row == {"criterion": "AC0", "name": "row", "status": "pass",
                   "detail": "x = 0.5 >= 0.1, sup C = 20 <= 1000",
                   "value": 0.5, "threshold": 0.1, "used": 0.2}
    failed = gated(math.nan, ("at_least", 0.1), (2e3, ("at_most", 1000.0), "sup C"))
    assert failed["status"] == "fail" and failed["used"] == math.inf
    assert gated(0.5, ("at_least", 0.1),
                 (2e3, ("at_most", 1000.0), "sup C"))["status"] == "fail"


def test_schema_accepts_used_and_a_band_threshold(tmp_path):
    schema = json.loads((ROOT / "src" / "bousslab" / "schema"
                         / "report_schema.json").read_text())
    report = RunReport("linear_rates", {})
    _gate(report, "AC5", "band", -0.06, ("within", -0.1, 0.02), "slope")
    _gate(report, "AC7", "nan", math.nan, ("at_most", 1.0), "x")
    path = write_report_json(tmp_path / "report.json", report.to_dict())
    written = json.loads(path.read_text())
    jsonschema.validate(written, schema)
    assert [v["used"] for v in written["verdicts"]] == [
        pytest.approx(1.0 / 3.0), "inf"]
    written["verdicts"][0]["threshold"] = [-0.1, 0.0, 0.02]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(written, schema)


def test_moving_a_declared_threshold_moves_the_whole_row(monkeypatch):
    # the AC5 band is declared once: status, detail, threshold and share
    # follow it together while the measured slope stays
    cfg = load_config(ROOT / "configs" / "linear_rates_radial_l2_1d.json")

    def k0_row() -> dict:
        report = run_experiment(cfg)
        return next(v for v in report.verdicts
                    if v["name"] == "slope[linear:k0:sobolev2]")

    shipped = k0_row()
    monkeypatch.setattr(experiments, "_AC5_K0_BAND", ("within", -0.05, 0.02))
    moved = k0_row()
    assert moved["value"] == shipped["value"] < -0.05
    assert (shipped["status"], moved["status"]) == ("pass", "fail")
    assert (shipped["threshold"], moved["threshold"]) == ([-0.1, 0.02], [-0.05, 0.02])
    assert "in [-0.1, 0.02]" in shipped["detail"]
    assert "in [-0.05, 0.02]" in moved["detail"]
    assert shipped["used"] < 1.0 < moved["used"]


@pytest.fixture(scope="module")
def perfbench_run():
    """``perfbench/run.py``, imported from its directory as the benchmark runs it."""
    bench = str(ROOT / "perfbench")
    sys.path.insert(0, bench)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench)
    return module


#: input gates check the config, not the computed result, and perfbench's
#: tol_used leaves them out
INPUT_GATES = ("domain_size_rule", "data_smallness")


@pytest.mark.parametrize("name", SHIPPED)
def test_largest_used_share_is_perfbench_tol_used(name, perfbench_run):
    report = run_experiment(load_config(ROOT / "configs" / f"{name}.json")).to_dict()
    used = [v["used"] for v in report["verdicts"]
            if "used" in v and v["name"] not in INPUT_GATES]
    assert max([0.0] + used) == perfbench_run.tol_used(report)
