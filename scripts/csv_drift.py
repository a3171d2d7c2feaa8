#!/usr/bin/env python3
"""Compare the artifacts of two runs of the shipped configs, config by config.

Usage: python3 scripts/csv_drift.py RUN_A RUN_B

``RUN_A`` and ``RUN_B`` are output roots of ``scripts/run_all.py`` (one
directory per config).  For every config the script prints whether
``series.csv`` and ``rates.csv`` are byte-identical; for a file that is
not, the largest relative move ``|a - b| / max(|a|, |b|)`` of each numeric
column, with the row where it occurs, and every text cell that changed.
It then lists the ``report.json`` verdicts whose status, value or
threshold moved; a ``[lo, hi]`` threshold moves when either end does.
Exit status: 0 when every config is in both runs with the same rows, 1
otherwise.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

CSVS = ("series.csv", "rates.csv")


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _relative_move(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def _label(header: list[str], row: list[str]) -> str:
    """The text cells of a row, and its ``t`` when it has one."""
    cells = [cell for cell in row if _number(cell) is None]
    if "t" in header:
        cells.append(f"t={row[header.index('t')]}")
    return ", ".join(cells)


def compare_csv(path_a: Path, path_b: Path) -> tuple[bool, list[str]]:
    """``(comparable, lines)`` describing how the two CSV files differ."""
    if path_a.read_bytes() == path_b.read_bytes():
        return True, ["byte-identical"]
    with path_a.open(newline="") as fa, path_b.open(newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return False, [f"different layout: {len(rows_a)} vs {len(rows_b)} rows, "
                       f"header {rows_a[:1]} vs {rows_b[:1]}"]
    header, rows_a, rows_b = rows_a[0], rows_a[1:], rows_b[1:]
    lines = ["differs"]
    for j, name in enumerate(header):
        worst, where, changed = 0.0, None, []
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            a, b = _number(ra[j]), _number(rb[j])
            if a is None or b is None:
                if ra[j] != rb[j]:
                    changed.append(f"row {i + 1}: {ra[j]!r} -> {rb[j]!r}")
                continue
            move = _relative_move(a, b)
            if move > worst:
                worst, where = move, i
        if where is not None:
            lines.append(f"{name}: max relative move {worst:.2g} at row {where + 1} "
                         f"({_label(header, rows_a[where])})")
        lines.extend(f"{name}: {c}" for c in changed)
    return True, lines


def compare_reports(path_a: Path, path_b: Path) -> list[str]:
    """The verdicts whose status, value or threshold moved between two
    ``report.json``."""
    verdicts = []
    for path in (path_a, path_b):
        report = json.loads(path.read_text())
        verdicts.append({(v["criterion"], v["name"]): v for v in report["verdicts"]})
    lines = []
    for key in sorted(verdicts[0].keys() | verdicts[1].keys()):
        va, vb = verdicts[0].get(key), verdicts[1].get(key)
        name = " ".join(key)
        if va is None or vb is None:
            lines.append(f"{name}: only in run {'B' if va is None else 'A'}")
            continue
        moves = []
        if va["status"] != vb["status"]:
            moves.append(f"status {va['status']} -> {vb['status']}")
        for field in ("value", "threshold"):
            a, b = va.get(field), vb.get(field)
            if a != b:
                move = (_relative_move(a, b) if isinstance(a, (int, float))
                        and isinstance(b, (int, float)) else math.inf)
                moves.append(f"{field} {a!r} -> {b!r} (relative move {move:.2g})")
        if moves:
            lines.append(f"{name}: " + ", ".join(moves))
    return lines


def compare_runs(run_a: Path, run_b: Path) -> int:
    configs_a = {p.name for p in run_a.iterdir() if p.is_dir()}
    configs_b = {p.name for p in run_b.iterdir() if p.is_dir()}
    status = 0
    for config in sorted(configs_a | configs_b):
        print(config)
        if config not in configs_a or config not in configs_b:
            print(f"  only in run {'A' if config in configs_a else 'B'}")
            status = 1
            continue
        for name in CSVS + ("report.json",):
            a, b = run_a / config / name, run_b / config / name
            if not a.exists() or not b.exists():
                if a.exists() or b.exists():
                    print(f"  {name}: only in run {'A' if a.exists() else 'B'}")
                    status = 1
                continue
            if name == "report.json":
                moved = compare_reports(a, b)
                print(f"  {name}: verdicts moved: {len(moved)}")
                print("".join(f"    {line}\n" for line in moved), end="")
                continue
            comparable, lines = compare_csv(a, b)
            if not comparable:
                status = 1
            print(f"  {name}: {lines[0]}")
            print("".join(f"    {line}\n" for line in lines[1:]), end="")
    return status


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("run_a", type=Path, help="output root of the first run")
    ap.add_argument("run_b", type=Path, help="output root of the second run")
    args = ap.parse_args()
    for root in (args.run_a, args.run_b):
        if not root.is_dir():
            ap.error(f"not a directory: {root}")
    sys.exit(compare_runs(args.run_a, args.run_b))
