"""No shipped config imports scipy, not even the oracle's, and a radial run
leaves ``numpy.polynomial`` unimported.

The Radau oracle of ``oracle_crosscheck`` is the package's own
(:mod:`bousslab.radau`), so ``import bousslab.cli``, loading every shipped
config and running ``oracle_crosscheck`` must leave scipy unimported.  The
radial quadrature takes its Gauss-Kronrod nodes and weights from a table in
:mod:`bousslab.linear`, so running a radial config must not import
``numpy.polynomial`` (whose ``leggauss`` it once called).  The check runs in
a fresh interpreter, since the test session itself imports both.  Nothing
is timed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import bousslab

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))

PROBE = """
import json, sys
import bousslab.cli
from bousslab.config import load_config
from bousslab.experiments import run_experiment

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {"import bousslab.cli": scipy_modules()}
for path in sys.argv[1:]:
    cfg = load_config(path)
    seen["load " + path] = scipy_modules()
    if cfg.experiment == "oracle_crosscheck":
        report = run_experiment(cfg)
        seen["run " + path] = scipy_modules()
        seen["verdicts"] = sorted({v["status"] for v in report.to_dict()["verdicts"]})
    elif path.endswith("linear_rates_gaussian_1d.json"):
        run_experiment(cfg)
        seen["numpy.polynomial"] = sorted(m for m in sys.modules
                                          if m.startswith("numpy.polynomial"))
print(json.dumps(seen))
"""


def scipy_modules_seen(paths: list[Path]) -> dict[str, list[str]]:
    """The scipy modules loaded after each step of the probe."""
    env = dict(os.environ)
    src = str(Path(bousslab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", PROBE, *map(str, paths)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_no_config_and_no_oracle_run_imports_scipy():
    oracle = [p for p in CONFIGS
              if json.loads(p.read_text())["experiment"] == "oracle_crosscheck"]
    assert [p.name for p in oracle] == ["oracle_crosscheck.json"]
    assert len(CONFIGS) == 8
    seen = scipy_modules_seen(CONFIGS)
    steps = ["import bousslab.cli"] + [f"load {p}" for p in CONFIGS] + [f"run {oracle[0]}"]
    assert set(seen) == set(steps) | {"verdicts", "numpy.polynomial"}
    for step in steps:
        assert seen[step] == [], step
    assert seen["verdicts"] == ["pass"]
    assert seen["numpy.polynomial"] == []
