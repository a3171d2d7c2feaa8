"""One benchmark pass, run in a fresh interpreter by ``run.py``.

A pass does what ``bousslab run`` does for each config of a workload: load
and validate the config, call ``run_experiment`` with ``threads=1`` and write
``report.json``, ``series.csv``, ``rates.csv`` and the SVG plots.  The pass
writes its timings to ``result.json`` in its output directory; a traced pass
also writes its spans to ``spans.json`` when it ends.

Clock stamps that the parent compares with its own use ``time.monotonic``,
which is system-wide on Linux; durations inside the pass use
``time.perf_counter``.

    python3 perfbench/pass_runner.py --out DIR --seed N [--trace] [--setup-only] CONFIG...
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import resource
import time
from contextlib import nullcontext
from pathlib import Path

from tracer import Tracer


def run_pass(config_paths: list[Path], seed: int, out_dir: Path,
             tracer: Tracer | None = None, setup_only: bool = False) -> dict:
    """Run the configs one after another; return the pass's measurements."""
    bousslab = importlib.import_module("bousslab")
    config = importlib.import_module("bousslab.config")
    experiments = importlib.import_module("bousslab.experiments")
    reporting = importlib.import_module("bousslab.reporting")
    result: dict = {"package": str(Path(bousslab.__file__).resolve().parent),
                    "t_imported": time.monotonic()}
    with tracer.installed() if tracer is not None else nullcontext():
        cfgs = [dataclasses.replace(config.load_config(p), seed=seed)
                for p in config_paths]
        result["t_ready"] = time.monotonic()
        if setup_only:
            return result
        configs = []
        start = time.perf_counter()
        for path, cfg in zip(config_paths, cfgs):
            report = experiments.run_experiment(cfg, threads=1)
            out = out_dir / Path(path).stem
            out.mkdir(parents=True, exist_ok=True)
            reporting.write_report_json(out / "report.json", report.to_dict())
            reporting.write_series_csv(out / "series.csv", report.experiment,
                                       report.series)
            reporting.write_rates_csv(out / "rates.csv", report.rate_rows)
            reporting.plot_run_svgs(out, report.series, report.guides)
            configs.append(out.name)
        end = time.perf_counter()
    result.update(
        configs=configs, window=[start, end], wall_s=end - start,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        bytes_written=sum(p.stat().st_size for name in configs
                          for p in (out_dir / name).iterdir()))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--workload", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("configs", nargs="+", type=Path)
    args = ap.parse_args()
    tracer = Tracer() if args.trace else None
    args.out.mkdir(parents=True, exist_ok=True)
    result = run_pass(args.configs, args.seed, args.out, tracer, args.setup_only)
    if tracer is not None:
        (args.out / "spans.json").write_text(json.dumps(
            {"workload": args.workload, "names": tracer.names,
             "columns": ["name", "start", "end", "parent", "work"],
             "spans": tracer.spans}, separators=(",", ":")))
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
