"""Which configs import scipy when they load.

Only the Radau oracle of ``oracle_crosscheck`` uses scipy, and importing
``scipy.integrate`` costs more than most runs.  So ``import bousslab.cli``
and loading any other shipped config must leave scipy unimported, while
loading an ``oracle_crosscheck`` config imports the oracle's modules before
its run starts, where the command line and the benchmark pay for them.
Each check runs in a fresh interpreter, since the test session itself
imports scipy.  Nothing is timed.
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
seen = {}
for path in sys.argv[1:]:
    load_config(path)
    seen[path] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(seen))
"""


def scipy_modules_after_loading(paths: list[Path]) -> dict[str, list[str]]:
    """The scipy modules loaded after each config, loading them in order."""
    env = dict(os.environ)
    src = str(Path(bousslab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", PROBE, *map(str, paths)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_only_an_oracle_config_imports_scipy():
    oracle = [p for p in CONFIGS
              if json.loads(p.read_text())["experiment"] == "oracle_crosscheck"]
    others = [p for p in CONFIGS if p not in oracle]
    assert [p.name for p in oracle] == ["oracle_crosscheck.json"]
    assert len(others) == 7
    seen = scipy_modules_after_loading(others + oracle)
    for p in others:
        assert seen[str(p)] == [], p.name
    loaded = seen[str(oracle[0])]
    assert "scipy.integrate" in loaded and "scipy.sparse" in loaded
