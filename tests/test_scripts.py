"""The command-line scripts under ``scripts/``, run as a user runs them.

``scripts/rate_table.py`` is the only caller of the n = 3 radial route at
late times; no config runs it.  Oracle: the linear decay law
``-n/4 - k/2`` of the paper for Gaussian data, which the fitted slopes over
t in [1e2, 1e4] must reproduce to 0.05; a bad argument exits 2 naming its
flag, and a sweep past the radial horizon exits 3, neither with a
traceback.  ``scripts/csv_drift.py`` is
checked on two hand-written run roots whose moves are known.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bousslab

ROOT = Path(__file__).resolve().parent.parent


def launch(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(bousslab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def run_script(name: str, *args: str) -> str:
    done = launch(name, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_rate_table_slopes_match_linear_decay_law():
    lines = run_script("rate_table.py", "--points", "12").splitlines()
    assert lines[0].split() == ["n", "k", "fitted", "theory", "stderr"]
    rows = [line.split() for line in lines[1:]]
    assert [(int(n), int(k)) for n, k, *_ in rows] == [
        (n, k) for n in (1, 2, 3) for k in (0, 1, 2)]
    for n, k, fitted, _, _ in rows:
        theory = -int(n) / 4.0 - int(k) / 2.0
        assert abs(float(fitted) - theory) <= 0.05, (n, k, fitted)


@pytest.mark.parametrize("flag, value", [
    ("--points", "5"), ("--points", "1000000000"), ("--t-lo", "0"), ("--t-hi", "50"),
    ("--alpha", "0.5"), ("--alpha", "nan")])
def test_rate_table_names_a_bad_argument(flag, value):
    done = launch("rate_table.py", f"{flag}={value}")
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1].startswith(f"rate_table.py: error: {flag}:")
    assert done.stdout == ""


def test_rate_table_exits_3_past_the_radial_horizon():
    # at t = 1e9 a panel sum would need more than the 2^20-node limit
    done = launch("rate_table.py", "--t-hi", "1e9", "--points", "8")
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: radial quadrature did not converge")


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
