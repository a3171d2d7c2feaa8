"""Deterministic run artifacts: series/rates CSV, report JSON, and SVG plots.

Every writer here is byte-deterministic for identical inputs: floats are
formatted with ``%.17g`` (shortest exact round-trip for doubles), rows follow
a declared ordering, JSON keys are sorted, and the SVG is assembled by hand
from fixed-precision coordinates with no timestamps or library versions.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .analysis import DecaySeries

SERIES_COLUMNS = ("experiment_id", "t", "k", "norm_kind", "value")
RATES_COLUMNS = ("k", "slope", "stderr", "theory_slope", "verdict")
#: a series source or norm kind that ``read_series_csv`` accepts
_NAME = re.compile(r"[A-Za-z0-9_]+")


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def write_series_csv(path: str | Path, experiment_id: str,
                     series_list: Sequence[DecaySeries]) -> Path:
    """Write time series rows ordered by (source, k, norm_kind, t)."""
    ordered = sorted(series_list, key=lambda s: (s.source, s.k, s.norm_kind))
    lines = [",".join(SERIES_COLUMNS)]
    for s in ordered:
        tag = f"{experiment_id}/{s.source}"
        for t, v in zip(s.times, s.values):
            lines.append(f"{tag},{_fmt(t)},{s.k},{s.norm_kind},{_fmt(v)}")
    p = Path(path)
    p.write_text("\n".join(lines) + "\n")
    return p


def read_series_csv(path: str | Path) -> list[DecaySeries]:
    """Inverse of :func:`write_series_csv` (used by replotting)."""
    text = Path(path).read_text().splitlines()
    if not text or text[0].split(",") != list(SERIES_COLUMNS):
        raise ValueError(f"{path}: not a series csv "
                         f"(expected header {','.join(SERIES_COLUMNS)})")
    buckets: dict[tuple[str, int, str], list[tuple[float, float]]] = {}
    for ln, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}:{ln}: expected 5 columns, got {len(parts)}")
        tag, t, k, kind, v = parts
        source = tag.split("/", 1)[1] if "/" in tag else tag
        # both name the plot files and are written into the SVG text
        for what, name in (("source", source), ("norm kind", kind)):
            if not _NAME.fullmatch(name):
                raise ValueError(f"{path}:{ln}: {what} {name!r} is not [A-Za-z0-9_]+")
        buckets.setdefault((source, int(k), kind), []).append((float(t), float(v)))
    out = []
    for (source, k, kind), rows in buckets.items():
        rows.sort()
        out.append(DecaySeries(times=np.array([r[0] for r in rows]),
                               values=np.array([r[1] for r in rows]),
                               k=k, norm_kind=kind, source=source))
    return out


def write_rates_csv(path: str | Path, rows: Sequence[Mapping[str, object]]) -> Path:
    """Write fitted-rate rows; each row supplies the RATES_COLUMNS keys.

    Row order follows the input (runners emit deterministic orderings); a
    skipped fit carries nan slope/stderr and a non-"pass" verdict.
    """
    lines = [",".join(RATES_COLUMNS)]
    for row in rows:
        lines.append(",".join([str(row["k"]),
                               _fmt(row["slope"]), _fmt(row["stderr"]),
                               _fmt(row["theory_slope"]), str(row["verdict"])]))
    p = Path(path)
    p.write_text("\n".join(lines) + "\n")
    return p


# ---------------------------------------------------------------------------
# JSON report
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_report_json(path: str | Path, report: Mapping[str, object]) -> Path:
    """Write the run report with sorted keys; non-finite floats become strings."""
    p = Path(path)
    p.write_text(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")
    return p


# ---------------------------------------------------------------------------
# SVG decay plots
# ---------------------------------------------------------------------------

_COLOR = "#1f6feb"
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 64, 16, 28, 44


def _ticks(lo: float, hi: float) -> list[float]:
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    step = max(1, (last - first) // 6 + 1)
    return [float(v) for v in range(first, last + 1, step)]


def plot_series_svg(path: str | Path, series: DecaySeries,
                    guides: Sequence[tuple[float, str]] = (),
                    title: str = "") -> Path:
    """Log-log decay plot of one series, with slope guide lines.

    Axes are ``log10(1+t)`` against ``log10(value)`` over the positive
    values; a guide ``(slope, label)`` is drawn as a dashed segment ending at
    the last plotted point.
    """
    pos = series.values > 0.0
    if not np.any(pos):
        raise ValueError("nothing to plot: the series is identically zero")
    xs = np.log10(1.0 + series.times[pos])
    ys = np.log10(series.values[pos])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>']
    # frame and ticks
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="#444444"/>')
    for xv in _ticks(x_lo, x_hi):
        X = px(xv)
        parts.append(f'<line x1="{X:.2f}" y1="{_H - _MB}" x2="{X:.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="#444444"/>')
        parts.append(f'<text x="{X:.2f}" y="{_H - _MB + 18}" font-size="11" '
                     f'text-anchor="middle" fill="#222222">1e{xv:g}</text>')
    for yv in _ticks(y_lo, y_hi):
        Y = py(yv)
        parts.append(f'<line x1="{_ML - 5}" y1="{Y:.2f}" x2="{_ML}" '
                     f'y2="{Y:.2f}" stroke="#444444"/>')
        parts.append(f'<text x="{_ML - 8}" y="{Y + 4:.2f}" font-size="11" '
                     f'text-anchor="end" fill="#222222">1e{yv:g}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 8}" font-size="12" '
                 f'text-anchor="middle" fill="#222222">1 + t</text>')
    if title:
        parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="18" font-size="13" '
                     f'text-anchor="middle" fill="#222222">{title}</text>')
    # the polyline and its legend entry
    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="{_COLOR}" '
                 f'stroke-width="1.5"/>')
    ly = _MT + 16
    parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" '
                 f'x2="{_W - _MR - 126}" y2="{ly - 4}" stroke="{_COLOR}" '
                 f'stroke-width="1.5"/>')
    parts.append(f'<text x="{_W - _MR - 120}" y="{ly}" font-size="11" '
                 f'fill="#222222">{series.label}</text>')
    # slope guides, ending at the last plotted point
    x1, y1 = float(xs[-1]), float(ys[-1])
    x0 = max(x_lo, x1 - 0.6 * (x_hi - x_lo))
    for slope, label in guides:
        y0 = y1 - slope * (x1 - x0)
        parts.append(f'<line x1="{px(x0):.2f}" y1="{py(y0):.2f}" x2="{px(x1):.2f}" '
                     f'y2="{py(y1):.2f}" stroke="#666666" stroke-width="1" '
                     f'stroke-dasharray="5,4"/>')
        parts.append(f'<text x="{px(x0) + 4:.2f}" y="{py(y0) - 4:.2f}" font-size="11" '
                     f'fill="#666666">{label}</text>')
    parts.append("</svg>")
    p = Path(path)
    p.write_text("\n".join(parts) + "\n")
    return p


def plot_run_svgs(out_dir: str | Path, series_list: Sequence[DecaySeries],
                  guides: Mapping[str, Sequence[tuple[float, str]]] | None = None,
                  ) -> list[Path]:
    """One SVG per series, named ``{source}_k{k}.svg``; zero series skipped.

    Series in a norm other than the default carry the norm kind in the file
    name so two series never share a file.  ``guides`` maps a series label to
    its slope guide lines.
    """
    out = Path(out_dir)
    written = []
    for s in sorted(series_list, key=lambda s: (s.source, s.k, s.norm_kind)):
        if not np.any(s.values > 0.0):
            continue
        gl = tuple((guides or {}).get(s.label, ()))
        stem = f"{s.source}_k{s.k}"
        if s.norm_kind != "sobolev2":
            stem += f"_{s.norm_kind}"
        written.append(plot_series_svg(out / f"{stem}.svg", s,
                                       guides=gl, title=s.label))
    return written
