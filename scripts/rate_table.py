#!/usr/bin/env python3
"""Print fitted long-time decay slopes of the linear flow against theory.

Sweeps dimensions and derivative orders for Gaussian displacement data using
the continuum radial-quadrature norms (no box, no time stepping), fitting
log-norm vs log(1+t) over a late-time window.  Bad arguments exit 2 naming
the flag; a radial quadrature that does not converge exits 3.

Usage: python3 scripts/rate_table.py [--t-lo 1e2] [--t-hi 1e4] [--points 40]
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from bousslab import (ModelParams, QuadratureError, fit_rate,
                      gaussian_radial_data, radial_decay_series)

#: most time points one sweep takes: 1000 run in about 2 s on one core
MAX_POINTS = 1000


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-lo", type=float, default=1e2)
    ap.add_argument("--t-hi", type=float, default=1e4)
    ap.add_argument("--points", type=int, default=40,
                    help=f"time points per sweep, 8 to {MAX_POINTS} (default 40)")
    ap.add_argument("--alpha", type=float, default=-1.0)
    args = ap.parse_args()
    if not 8 <= args.points <= MAX_POINTS:
        ap.error(f"--points: need 8 to {MAX_POINTS}, got {args.points}")
    if not 0.0 < args.t_lo < math.inf:
        ap.error(f"--t-lo: need a finite time > 0, got {args.t_lo}")
    if not args.t_lo < args.t_hi < math.inf:
        ap.error(f"--t-hi: need a finite time > --t-lo, got {args.t_hi}")
    if not -math.inf < args.alpha <= -1.0:
        ap.error(f"--alpha: need a finite alpha <= -1, got {args.alpha}")

    params = ModelParams(alpha=args.alpha)
    times = np.geomspace(args.t_lo, args.t_hi, args.points)
    print(f"{'n':>2} {'k':>2} {'fitted':>9} {'theory':>8} {'stderr':>9}")
    for n in (1, 2, 3):
        data = gaussian_radial_data(n=n)
        try:
            series = radial_decay_series(data, times, (0, 1, 2), n, params,
                                         which="linear")
        except QuadratureError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        for s in series:
            fit = fit_rate(s, (args.t_lo, args.t_hi))
            theory = -n / 4.0 - s.k / 2.0
            print(f"{n:>2} {s.k:>2} {fit.slope:>9.4f} {theory:>8.2f} "
                  f"{fit.stderr:>9.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
