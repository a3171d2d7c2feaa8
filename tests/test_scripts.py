"""The command-line scripts under ``scripts/``, run as a user runs them.

``scripts/rate_table.py`` is the only caller of the n = 3 radial route at
late times; no config runs it.  Oracle: the linear decay law
``-n/4 - k/2`` of the paper for Gaussian data, which the fitted slopes over
t in [1e2, 1e4] must reproduce to 0.05.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import bousslab

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    src = str(Path(bousslab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
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
