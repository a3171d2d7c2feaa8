"""bousslab benchmark: time to verdict on three workloads, plus a traced run.

    python3 perfbench/run.py --workload box_etd --seed 0 --seconds 30 --trace 0

Run from the root of a bousslab checkout.  Each workload is a closed loop
with one client: passes run one after another, each in a fresh interpreter
(``pass_runner.py``) with ``threads=1``, until ``--seconds`` is used up.  A
pass does what ``bousslab run`` does for every config of the workload.
``--seed`` replaces the configs' ``seed`` field and nothing else.

Every pass is checked: each gated verdict must pass, ``report.json`` must
validate against the package's report schema, and ``series.csv`` and
``rates.csv`` must be byte-identical to the first pass of the run.

``--trace 0`` reports the end-to-end metrics, one value per workload:

* ``setup_s``: interpreter start until ``bousslab`` is imported and the
  configs are loaded and validated; median over every pass start-up and
  ``SETUP_PROBES`` start-ups that stop there.
* ``wall_s``: time to verdict, the median over passes of the time from the
  first ``run_experiment`` to the last artifact written, scaled to the
  reference CPU speed (see ``calibration_s``).  The measured times and the
  pass count are printed as well.
* ``peak_rss_mb``: ``ru_maxrss`` of the pass process, median over passes.
* ``tol_used_max``: the largest share of its pinned tolerance that any gated
  verdict uses (see ``tol_used``).

Operations are passes, set-ups and gated verdicts; ``attempted`` and
``failed`` count them and the printed ``verdict_fail_frac`` is their ratio.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the spans of the traced ones (see ``tracer.py``),
plus ``trace.overhead_s``, traced minus untraced ``wall_s``.  The last line
of standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  Lines before it give every metric by name and unit and the
run's provenance; the full record of the run goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from tracer import LAYERS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Why each workload: box_etd is the FFT-bound ETD integrator (1-D 512 and
# 2-D 128^2 grids, no radial quadrature); radial_sweep is the mesh-free
# radial route to t = 1e4 (kernel symbols and quadrature, no FFT, no time
# stepping), so box-side changes should leave it unchanged; crosscheck drives
# the same layers with 64-mode arrays through tens of thousands of small
# calls (DOP853 right-hand side, Picard sweeps), where per-call cost rules.
WORKLOADS = {
    "box_etd": ("nl_vs_linear_gap_2d", "nonlinear_rates_1d"),
    "radial_sweep": ("linear_rates_gaussian_1d", "linear_rates_gaussian_2d",
                     "linear_rates_radial_l2_1d", "profile_gap_1d"),
    "crosscheck": ("oracle_crosscheck", "lemma_certify"),
}
THREADS = 1
#: interpreter start-ups per untraced run that stop once configs are loaded
SETUP_PROBES = 3
SCHEMA = Path("src/bousslab/schema/report_schema.json")
CHECKED_CSVS = ("series.csv", "rates.csv")
#: whole run, children included, stays below this many seconds
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
                    "tol_used_max": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for key, (_, stats) in LAYERS.items():
        for stat in stats:
            units[f"{key}.{stat}"] = ("s" if stat.endswith("_s") else
                                      "B" if stat.startswith("bytes") else "count")
    units.update({"reporting.bytes_written": "B", "trace.overhead_s": "s",
                  "trace.coverage": "ratio"})
    return units


# ---------------------------------------------------------------------------
# correctness of one pass
# ---------------------------------------------------------------------------

#: gates of the form value <= threshold, by verdict name (or name prefix)
UPPER_GATES = ("kernel_ode_residual", "root_sum_product", "energy_balance",
               "integrator_vs_reference", "picard_contraction",
               "picard_limit_matches_solve", "xnorm_bounded", "constant_stability[")
#: AC5 gates the k = 0 slope of square-integrable data to this band
AC5_K0_BAND = (-0.1, 0.02)


def tol_used(report: dict) -> float:
    """Largest share of its pinned tolerance that a gated verdict uses.

    Slopes use |slope - theory| / slope_tol (AC4/5/7), the AC5 k = 0 band
    its half-width, AC8's no-growth trend max(slope, 0) / slope_tol, AC6
    |gain + 0.5| / tol, certificates c_floor / c and sup / cap, and the other
    numeric gates value / threshold.  The input gates (domain size, data
    smallness) check the config, not the computed result, and are left out.
    """
    analysis = report["config"]["analysis"]
    fits = {f"slope[{f['label']}]": f for f in report["fits"]}
    certs = {f"certificate[{c['which']}]": c for c in report["certificates"]}
    used = [0.0]
    for v in report["verdicts"]:
        name = v["name"]
        if v["status"] not in ("pass", "fail"):
            continue
        if name in fits:
            fit = fits[name]
            slope = float(fit["slope"])
            if v["criterion"] == "AC8":
                used.append(max(slope, 0.0) / analysis["slope_tol"])
            elif v["criterion"] == "AC5" and fit["k"] == 0:
                lo, hi = AC5_K0_BAND
                used.append(abs(slope - 0.5 * (lo + hi)) / (0.5 * (hi - lo)))
            else:
                used.append(abs(slope - float(fit["theory_slope"]))
                            / analysis["slope_tol"])
        elif name.startswith("gap_gain["):
            used.append(abs(float(v["value"]) + 0.5) / float(v["threshold"]))
        elif name in certs:
            c = certs[name]
            used.append(max(analysis["c_floor"] / float(c["fitted_c"]),
                            float(c["sup_ratio"]) / float(c["cap"])))
        elif name.startswith(UPPER_GATES) and "value" in v:
            used.append(float(v["value"]) / float(v["threshold"]))
    return max(used)


class PassChecker:
    """Checks the artifacts of every pass against the first pass of the run."""

    def __init__(self, validator) -> None:
        self.validator = validator
        self.reference: dict[str, dict[str, str]] = {}

    def check(self, out_dir: Path, configs: list[str]) -> tuple[int, int, float, list[str]]:
        """Return (gated verdicts, failed verdicts, tol_used_max, problems)."""
        gated = failed = 0
        used = 0.0
        problems = []
        for name in configs:
            d = out_dir / name
            try:
                report = json.loads((d / "report.json").read_text())
                hashes = {f: hashlib.sha256((d / f).read_bytes()).hexdigest()
                          for f in CHECKED_CSVS}
            except (OSError, ValueError) as exc:
                problems.append(f"{name}: unreadable artifacts: {exc}")
                continue
            errors = sorted(self.validator.iter_errors(report), key=str)
            if errors:
                problems.append(f"{name}: report.json fails the schema: "
                                f"{errors[0].message}")
                continue
            for v in report["verdicts"]:
                if v["status"] == "info":
                    continue
                gated += 1
                if v["status"] != "pass":
                    failed += 1
                    problems.append(f"{name}: verdict {v['criterion']} "
                                    f"{v['name']} is {v['status']}: {v['detail']}")
            used = max(used, tol_used(report))
            first = self.reference.setdefault(name, hashes)
            for f in CHECKED_CSVS:
                if hashes[f] != first[f]:
                    problems.append(f"{name}: {f} differs from the first pass")
        return gated, failed, used, problems


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, trace: bool) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "workload": workload, "configs": list(WORKLOADS[workload]),
        "seed": seed, "trace": trace, "threads": THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "git_sha": git_sha(ROOT),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "loadavg": loadavg,
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def spawn(out_dir: Path, config_paths: list[Path], seed: int, workload: str,
          traced: bool, setup_only: bool, timeout: float) -> tuple[float, dict | None, str]:
    """Run one pass in a fresh interpreter; return (spawn stamp, result, error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "pass_runner.py"), "--out", str(out_dir),
           "--seed", str(seed), "--workload", workload]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    cmd += [str(p) for p in config_paths]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return t_spawn, None, f"pass did not finish within {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return t_spawn, None, f"pass exited {proc.returncode}: {tail[0]}"
    result = json.loads((out_dir / "result.json").read_text())
    if Path(result["package"]) != (ROOT / "src" / "bousslab").resolve():
        return t_spawn, None, f"imported bousslab from {result['package']}"
    return t_spawn, result, ""


def median(values: list[float]) -> float:
    return float(statistics.median(values))


#: seconds one calibration rep takes on the reference box (2-core KVM Xeon,
#: 2.1 GHz, Python 3.11, numpy 2.4) when its host is quiet
CAL_REF_S = 0.04


def calibration_s(reps: int = 9) -> float:
    """Median time of a fixed kernel that does not use bousslab.

    The shared hosts this runs on change the CPU's speed by tens of percent
    for minutes at a time, far longer than one run.  The kernel mixes the
    work the workloads do (2-D FFTs, complex elementwise numpy, interpreted
    Python), so a pass's wall time times ``CAL_REF_S`` over the calibration
    measured around it reads as seconds at the reference speed, with that
    drift taken out.
    """
    import numpy as np
    a0 = np.exp(2j * np.pi * np.arange(128 * 128).reshape(128, 128) / 97.0)
    v = np.linspace(0.0, 4.0, 4096)
    times = []
    for _ in range(reps):
        a = a0
        t0 = time.perf_counter()
        for _ in range(40):
            a = np.fft.ifftn(np.fft.fftn(a))
        for _ in range(100):
            np.exp((-0.5 + 1j) * v) * np.sqrt(v + 1.0) / (v * v + 1.0)
        acc = 0
        for i in range(150_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return median(times)


def main(argv: list[str] | None = None) -> int:
    t_launch = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    trace = bool(args.trace)

    config_paths = [ROOT / "configs" / f"{name}.json" for name in WORKLOADS[args.workload]]
    missing = [str(p.relative_to(ROOT)) for p in
               [ROOT / "src" / "bousslab" / "__init__.py", ROOT / SCHEMA, *config_paths]
               if not p.is_file()]
    if missing:
        print(f"error: not a bousslab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    import jsonschema  # test dependency of bousslab
    schema = json.loads((ROOT / SCHEMA).read_text())
    checker = PassChecker(jsonschema.validators.validator_for(schema)(schema))

    prov = provenance(args.workload, args.seed, trace)
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    attempted = failed = 0
    setups: list[float] = []
    samples = {False: [], True: []}   # successful passes, by traced
    durations = {False: [], True: []}  # every pass attempt, by traced
    problems: list[str] = []
    layer_samples: list[dict[str, float]] = []
    t_begin = time.monotonic()
    deadline = t_begin + args.seconds

    def timeout() -> float:
        return max(5.0, RUN_LIMIT_S - (time.monotonic() - t_launch))

    def fatal(msg: str) -> int:
        print(f"error: {msg}", file=sys.stderr)
        return 2

    try:
        for i in range(0 if trace else SETUP_PROBES):
            out = work / f"probe{i}"
            t_spawn, res, err = spawn(out, config_paths, args.seed, args.workload,
                                      False, True, timeout())
            attempted += 1
            if res is None:
                if err.startswith("imported"):
                    return fatal(err)
                failed += 1
                problems.append(f"setup probe {i}: {err}")
                continue
            setups.append(res["t_ready"] - t_spawn)

        required = {False: 1, True: 1} if trace else {False: 2, True: 0}
        n = 0
        cal_after = calibration_s()
        while True:
            traced = trace and n % 2 == 1
            if all(len(durations[k]) >= required[k] for k in required):
                seen = durations[traced] or durations[False] + durations[True]
                if time.monotonic() + median(seen) > deadline:
                    break
            out = work / f"pass{n}"
            t0 = time.monotonic()
            cal_before = cal_after
            t_spawn, res, err = spawn(out, config_paths, args.seed, args.workload,
                                      traced, False, timeout())
            cal_after = calibration_s()
            cal = 0.5 * (cal_before + cal_after)
            durations[traced].append(time.monotonic() - t0)
            n += 1
            attempted += 1
            if res is None:
                if err.startswith("imported"):
                    return fatal(err)
                failed += 1
                problems.append(f"pass {n}: {err}")
                continue
            gated, bad, used, found = checker.check(out, res["configs"])
            attempted += gated
            failed += bad + (1 if found else 0)
            problems += [f"pass {n}: {p}" for p in found]
            res.update(setup_s=res["t_ready"] - t_spawn, tol_used_max=used,
                       calibration_s=cal, wall_ref_s=res["wall_s"] * CAL_REF_S / cal)
            samples[traced].append(res)
            if not traced:
                setups.append(res["setup_s"])
            else:
                spans = json.loads((out / "spans.json").read_text())
                metrics = layer_metrics(spans["names"], spans["spans"],
                                        tuple(res["window"]))
                metrics["reporting.bytes_written"] = res["bytes_written"]
                layer_samples.append(metrics)
                RESULTS.mkdir(exist_ok=True)
                shutil.move(str(out / "spans.json"),
                            RESULTS / f"{args.workload}.spans.json")
            shutil.rmtree(out, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain, traced_runs = samples[False], samples[True]
    if not plain or (trace and not traced_runs):
        for p in problems[:5]:
            print(p, file=sys.stderr)
        return fatal("no pass completed, nothing was measured")

    wall = median([r["wall_ref_s"] for r in plain])
    if trace:
        units = per_layer_units()
        keys = sorted(set().union(*layer_samples))
        values = {k: median([m[k] for m in layer_samples if k in m]) for k in keys}
        values["trace.overhead_s"] = median([r["wall_ref_s"] for r in traced_runs]) - wall
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": median(setups),
            "wall_s": wall,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "tol_used_max": median([r["tol_used_max"] for r in plain]),
        }
    metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()}
    fail_frac = failed / attempted if attempted else math.nan

    for p in problems:
        print(p, file=sys.stderr)
    print(f"workload {args.workload}: {len(plain)} untraced + {len(traced_runs)} "
          f"traced passes, {len(setups)} set-ups, in "
          f"{time.monotonic() - t_begin:.1f} s")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"measured wall time per pass = "
          f"{median([r['wall_s'] for r in plain]):.6g} s, calibration = "
          f"{median([r['calibration_s'] for r in plain]):.6g} s "
          f"(reference {CAL_REF_S:g} s)")
    print(f"verdict_fail_frac = {fail_frac:.6g} ratio ({failed} of {attempted} "
          f"operations failed)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    record = {"provenance": prov, "metrics": metrics, "attempted": attempted,
              "failed": failed, "verdict_fail_frac": fail_frac,
              "problems": problems, "setup_s": setups,
              "passes": [{k: r[k] for k in ("wall_s", "wall_ref_s", "calibration_s",
                                             "setup_s", "peak_rss_mb",
                                             "tol_used_max", "bytes_written")}
                         | {"traced": traced}
                         for traced in (False, True) for r in samples[traced]]}
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
