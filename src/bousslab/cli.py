"""Command-line experiment runner.

``bousslab run <config.json> [--out DIR]`` executes one named experiment
and writes ``report.json``, ``series.csv``, ``rates.csv``, and one SVG per
decay series into the output directory.  ``bousslab list`` prints the
experiment registry; ``bousslab replot <series.csv>`` regenerates the SVG
plots from a previously written series table.

Exit codes: 0 all verdicts pass; 1 at least one verdict failed; 2 invalid
configuration (message names the offending field or JSON location), an
output directory that cannot be written (``error: --out: cannot write``),
a series table that ``replot`` cannot read, or plots that ``replot``
cannot write next to it (``error: replot: cannot write``); 3 the run failed
numerically: it blew up (amplitude guard tripped or non-finite state), the
reference oracle failed ("reference integration failed", with its cause),
or a radial quadrature did not converge (the message says which).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .experiments import list_experiments, run_experiment
from .linear import QuadratureError
from .nonlinear import BlowUpError, ReferenceIntegrationError
from .reporting import (plot_run_svgs, read_series_csv, slope_guides,
                        write_rates_csv, write_report_json, write_series_csv)

EXIT_OK = 0
EXIT_VERDICT_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_BLOWUP = 3

#: environment variable naming the default output base directory
OUT_ENV_VAR = "BOUSSLAB_OUT"


def _default_out(experiment: str) -> Path:
    base = os.environ.get(OUT_ENV_VAR, "runs")
    return Path(base) / experiment


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    out_dir = Path(args.out) if args.out else _default_out(cfg.experiment)
    try:
        report = run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (BlowUpError, ReferenceIntegrationError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_report_json(out_dir / "report.json", report.to_dict())
        write_series_csv(out_dir / "series.csv", report.experiment, report.series)
        write_rates_csv(out_dir / "rates.csv", report.rate_rows)
        plot_run_svgs(out_dir, report.series, report.guides)
    except OSError as exc:
        print(f"error: --out: cannot write {out_dir}: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    for v in report.verdicts:
        print(f"[{v['status']:<4}] {v['criterion']:<4} {v['name']}: {v['detail']}")
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.experiment} "
          f"({report.timings['total_s']:.1f}s) -> {out_dir}")
    return EXIT_OK if report.passed else EXIT_VERDICT_FAILED


def _cmd_list(_args: argparse.Namespace) -> int:
    sys.stdout.write(list_experiments())
    return EXIT_OK


def _cmd_replot(args: argparse.Namespace) -> int:
    path = Path(args.series)
    try:
        series = read_series_csv(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    fits = []
    report_path = path.parent / "report.json"
    if report_path.exists():
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = None
        if isinstance(report, dict) and isinstance(report.get("fits"), list):
            fits = [fit for fit in report["fits"] if isinstance(fit, dict)]
    try:
        written = plot_run_svgs(path.parent, series, slope_guides(fits))
    except OSError as exc:
        print(f"error: replot: cannot write {path.parent}: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    for p in written:
        print(p)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bousslab",
        description="Spectral decay-rate laboratory for a damped "
                    "dispersive wave equation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config (JSON)")
    p_run.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUT_ENV_VAR} or "
                            f"./runs, plus the experiment name)")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list experiment ids and what they verify")
    p_list.set_defaults(func=_cmd_list)

    p_replot = sub.add_parser("replot",
                              help="regenerate SVG plots from a series.csv")
    p_replot.add_argument("series", help="path to a series.csv written by run")
    p_replot.set_defaults(func=_cmd_replot)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
