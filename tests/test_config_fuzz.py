"""Config fuzzing: one field of a shipped config at a time, through ``cli.main``.

Every mutated config must end in a documented exit code (0 pass, 1 verdict
failed, 2 bad config, 3 run failed numerically) with no exception escaping,
and every exit 2 must name a field.  The shipped configs are first shrunk
(N <= 64, at most 200 steps, 8 radial times) so that the whole test takes a
few seconds.  No mutation enlarges the grid, the number of steps or the
number of times: nothing caps them, so a huge ``N`` would allocate before
any check could run.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bousslab.cli import main

ROOT = Path(__file__).resolve().parents[1]

#: shrunk discretizations and fit windows of the shipped box configs
SHRINK = {
    "nonlinear_rates_1d": {"discretization": {"L": 80.0, "N": 64, "dt": 0.1, "T": 20.0,
                                              "out_every": 20},
                           "analysis": {"fit_window": [2.0, 20.0]}},
    "nl_vs_linear_gap_2d": {"discretization": {"L": 60.0, "N": 32, "dt": 0.05, "T": 10.0,
                                               "out_every": 20},
                            "analysis": {"fit_window": [1.0, 10.0]}},
    "oracle_crosscheck": {"discretization": {"N": 32, "dt": 0.01, "T": 1.0}},
}


def base_configs() -> dict[str, dict]:
    configs = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        for section, values in SHRINK.get(path.stem, {}).items():
            cfg[section].update(values)
        if "n_times" in cfg.get("analysis", {}):
            cfg["analysis"]["n_times"] = 8
        configs[path.stem] = cfg
    return configs


BASES = base_configs()


def leaves(cfg: dict) -> list[tuple]:
    """Paths of every field, list element and section of a config."""
    out = []
    for key, value in cfg.items():
        out.append((key,))
        if isinstance(value, dict):
            for sub, inner in value.items():
                out.append((key, sub))
                if isinstance(inner, list):
                    out += [(key, sub, i) for i in range(len(inner))]
    return out


NAN, INF = math.nan, math.inf
#: values of the wrong type, non-finite, empty or out of range for any field
GENERIC = [0, -1, 1, 0.5, 2.5, 1e-300, -1e300, 1e300, NAN, INF, -INF, True,
           "x", "", None, [], {}, [1.0, 2.0]]
#: more steps, times or modes: these fields may only shrink
NO_GROWTH = {"N", "T", "n_times", "n"}


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def candidates(path: tuple, base) -> list:
    """Replacement values for the field at ``path`` with value ``base``."""
    if isinstance(base, dict):
        # an empty or other section falls back to defaults, which may be larger
        return [v for v in GENERIC if not isinstance(v, dict)]
    name = path[-1] if isinstance(path[-1], str) else path[-2]
    if name in NO_GROWTH and _number(base):
        smaller = [base // 2, base - 1, 8, 7, 1] if isinstance(base, int) else [base / 2, base / 3]
        # non-finite values are rejected when the config loads
        return [v for v in smaller + GENERIC
                if not _number(v) or not math.isfinite(v) or v <= base]
    if name == "dt" and _number(base):
        # a smaller positive step means more steps
        return [v for v in [base * 2, base * 3, base * 1.5] + GENERIC
                if not _number(v) or not math.isfinite(v) or v <= 0 or v >= base]
    if name in ("f_kind", "g_kind"):
        return ["none", "cubic", "quadratic"] + GENERIC
    if name == "kind":
        return ["gaussian", "radial_L2", "custom_file"] + GENERIC
    return GENERIC


@st.composite
def mutations(draw):
    stem = draw(st.sampled_from(sorted(BASES)))
    cfg = json.loads(json.dumps(BASES[stem]))
    path = draw(st.sampled_from(leaves(cfg)))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    value = draw(st.sampled_from(candidates(path, parent[path[-1]])))
    parent[path[-1]] = value
    return stem, path, cfg


#: an exit-2 message starts with the config field it is about
FIELD = re.compile(r"error: (experiment|seed|model|discretization|data|analysis)"
                   r"(\.[A-Za-z_][A-Za-z0-9_]*)?(\[\d+\])?: ")


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations())
def test_mutated_shipped_config_ends_in_a_documented_exit_code(mutation):
    stem, path, cfg = mutation
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["run", str(config), "--out", str(Path(tmp) / "out")])
    assert rc in (0, 1, 2, 3), (stem, path, rc)
    if rc == 2:
        assert FIELD.match(err.getvalue()), (stem, path, err.getvalue())
