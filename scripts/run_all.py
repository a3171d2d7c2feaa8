#!/usr/bin/env python3
"""Run every experiment config in configs/ and print a one-line summary each.

Usage: python3 scripts/run_all.py [--out DIR]

Each config runs on one thread: on a 2-core host, four threads were
1.9-2.6x slower than one on every radial config (min of 5 in-process runs).
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from bousslab.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def run_all(out_root: str) -> int:
    configs = sorted((ROOT / "configs").glob("*.json"))
    if not configs:
        print("no configs found", file=sys.stderr)
        return 2
    worst = 0
    for cfg in configs:
        out_dir = str(Path(out_root) / cfg.stem)
        t0 = time.perf_counter()
        code = cli_main(["run", str(cfg), "--out", out_dir])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"--- {cfg.stem}: {status} ({time.perf_counter() - t0:.1f}s)")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs", help="root output directory")
    args = ap.parse_args()
    sys.exit(run_all(args.out))
