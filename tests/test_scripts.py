"""The README's edited-config recipes and the scripts under ``scripts/``,
run as a user runs them.

An edited copy of a shipped ``linear_rates`` config is the route to the
decay slopes in a dimension no config ships: n = 3 runs nowhere else at
late times.  Oracles: the AC4 gate on the linear decay law
``-n/4 - k/2`` of the paper for Gaussian data, and ``radial_decay_series``
plus ``fit_rate`` called directly, whose slopes ``rates.csv`` must hold
bitwise; a bad edit exits 2 naming its field, and a window past the
radial horizon exits 3, neither with a traceback.
``scripts/csv_drift.py`` is checked on two hand-written run roots whose
moves are known.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bousslab
from bousslab import ModelParams, fit_rate, gaussian_radial_data, radial_decay_series

ROOT = Path(__file__).resolve().parent.parent


def launch(*argv: str) -> subprocess.CompletedProcess:
    """``python argv`` with the package under test on the path."""
    env = dict(os.environ)
    src = str(Path(bousslab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def run_script(name: str, *args: str) -> str:
    done = launch(str(ROOT / "scripts" / name), *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_edited(tmp_path: Path, name: str, section: str,
               **edits) -> tuple[subprocess.CompletedProcess, Path]:
    """``bousslab run`` on a copy of ``configs/<name>.json`` with ``edits``
    made to ``section``, as the README's recipe makes it."""
    cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    cfg[section].update(edits)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    return launch("-m", "bousslab.cli", "run", str(path), "--out", str(out)), out


def test_edited_config_gives_the_three_dimensional_slopes(tmp_path):
    done, out = run_edited(tmp_path, "linear_rates_gaussian_2d", "discretization", n=3)
    assert done.returncode == 0, done.stderr
    verdicts = json.loads((out / "report.json").read_text())["verdicts"]
    assert [(v["criterion"], v["status"]) for v in verdicts] == [("AC4", "pass")] * 3
    rows = (out / "rates.csv").read_text().splitlines()
    slopes = [float(row.split(",")[1]) for row in rows[1:]]
    series = radial_decay_series(gaussian_radial_data(n=3), np.geomspace(1e2, 1e4, 40),
                                 (0, 1, 2), 3, ModelParams())
    assert slopes == [fit_rate(s, (1e2, 1e4)).slope for s in series]
    assert slopes == [-0.74732000820070199, -1.243623490878109, -1.738461430151655]


@pytest.mark.parametrize("section, edits, field", [
    ("analysis", dict(n_times=5), "analysis.n_times"),
    ("analysis", dict(fit_window=[50.0, 10.0]), "analysis.fit_window"),
    ("model", dict(alpha=0.5), "model.alpha"),
    ("discretization", dict(n=4), "discretization.n")])
def test_bad_edit_exits_2_naming_its_field(tmp_path, section, edits, field):
    done, out = run_edited(tmp_path, "linear_rates_gaussian_2d", section, **edits)
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: {field}:") and "Traceback" not in done.stderr
    assert not out.exists()


def test_edited_window_past_the_radial_horizon_exits_3(tmp_path):
    # at t = 1e9 a panel sum would need more than the 2^20-node limit
    done, out = run_edited(tmp_path, "linear_rates_gaussian_1d", "analysis",
                           fit_window=[1e2, 1e9], n_times=8)
    assert done.returncode == 3
    assert done.stderr == ("error: radial quadrature did not converge: a panel sum on "
                           "[0, 0.000252982] would need 1509975 nodes (limit 1048576)\n")
    assert not out.exists()


def write_run(root: Path, value: str, slope: str, status: str,
              threshold: float | list = 0.1) -> Path:
    """A run root with one config holding the three compared artifacts."""
    run = root / "cfg"
    run.mkdir(parents=True)
    (run / "series.csv").write_text("experiment_id,t,k,norm_kind,value\n"
                                    f"demo/a,0,0,l2,1.0\ndemo/a,1,0,l2,{value}\n")
    (run / "rates.csv").write_text("k,slope,stderr,theory_slope,verdict\n"
                                   f"0,{slope},0.01,-0.5,{status}\n")
    verdicts = [{"criterion": "AC7", "name": "slope", "status": status,
                 "value": float(slope), "threshold": threshold},
                {"criterion": "AC7", "name": "exact", "status": "pass"}]
    (run / "report.json").write_text(json.dumps({"verdicts": verdicts}))
    return root


def test_csv_drift_reports_identical_files_and_the_largest_moves(tmp_path):
    a = write_run(tmp_path / "a", "0.5", "-0.5", "pass")
    same = write_run(tmp_path / "same", "0.5", "-0.5", "pass")
    moved = write_run(tmp_path / "moved", "0.50000001", "-0.25", "fail")
    assert run_script("csv_drift.py", str(a), str(same)).splitlines() == [
        "cfg", "  series.csv: byte-identical", "  rates.csv: byte-identical",
        "  report.json: verdicts moved: 0"]
    lines = run_script("csv_drift.py", str(a), str(moved)).splitlines()
    assert lines == [
        "cfg",
        "  series.csv: differs",
        "    value: max relative move 2e-08 at row 2 (demo/a, l2, t=1)",
        "  rates.csv: differs",
        "    slope: max relative move 0.5 at row 1 (pass)",
        "    verdict: row 1: 'pass' -> 'fail'",
        "  report.json: verdicts moved: 1",
        "    AC7 slope: status pass -> fail, value -0.5 -> -0.25 (relative move 0.5)"]


def test_csv_drift_reports_a_moved_threshold(tmp_path):
    # thresholds move like values; a [lo, hi] band moves when either end does
    a = write_run(tmp_path / "a", "0.5", "-0.5", "pass", threshold=[-0.1, 0.02])
    band = write_run(tmp_path / "band", "0.5", "-0.5", "pass", threshold=[-0.05, 0.02])
    scalar = write_run(tmp_path / "scalar", "0.5", "-0.5", "pass", threshold=0.2)
    assert run_script("csv_drift.py", str(a), str(band)).splitlines()[3:] == [
        "  report.json: verdicts moved: 1",
        "    AC7 slope: threshold [-0.1, 0.02] -> [-0.05, 0.02] (relative move inf)"]
    b = write_run(tmp_path / "b", "0.5", "-0.5", "pass")
    assert run_script("csv_drift.py", str(b), str(scalar)).splitlines()[3:] == [
        "  report.json: verdicts moved: 1",
        "    AC7 slope: threshold 0.1 -> 0.2 (relative move 0.5)"]
