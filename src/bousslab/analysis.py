"""Decay-rate extraction, envelope certification, and inequality checks.

The verification style throughout is empirical and conservative: decay rates
are least-squares slopes in ``log(1+t)`` / ``log(norm)`` coordinates over a
declared fit window, and every claimed pointwise envelope is certified by
exhibiting explicit constants ``(C, c)`` such that the measured ratio
``lhs * exp(+c * envelope * t) / weight`` stays below ``C`` on a dense
frequency-time grid, rather than assumed from theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linear import RadialData, linear_norm_radial
from .nonlinear import Trajectory
from .spectral import (TWO_PI, Grid, PhysicalField, forward_transform,
                       inverse_transform, l1_norm, neg_sobolev_norm, sobolev_norm)
from .symbols import ModelParams, decay_envelope, profile_symbols, propagator


@dataclass(frozen=True)
class DecaySeries:
    """A norm sampled along time, labelled by derivative order and kind."""

    times: np.ndarray
    values: np.ndarray
    k: int
    norm_kind: str
    source: str

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if t.size and np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise ValueError("series values must be finite and nonnegative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def label(self) -> str:
        return f"{self.source}:k{self.k}:{self.norm_kind}"


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of ``log(value)`` against ``log(1+t)``."""

    slope: float
    intercept: float
    stderr: float
    window: tuple[float, float]
    n_points: int


def _fit_points(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Mask of the ``times`` inside ``window`` (inclusive); ValueError unless
    the window is nonempty and holds at least 6 of them.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (lo < hi):
        raise ValueError(f"empty fit window {window}")
    sel = (times >= lo) & (times <= hi)
    _check_fit_count(int(np.count_nonzero(sel)))
    return sel


def _check_fit_count(count: int) -> None:
    """ValueError unless a fit window holds at least 6 points."""
    if count < 6:
        raise ValueError(f"need at least 6 points in the fit window, got {count}")


def fit_rate(series: DecaySeries, window: tuple[float, float]) -> RateFit:
    """Fit the decay exponent of a series inside ``window`` (inclusive).

    Requires at least 6 window points with strictly positive values;
    zero or negative values make the logarithm meaningless and raise.
    """
    sel = _fit_points(series.times, window)
    t = series.times[sel]
    v = series.values[sel]
    if np.any(v <= 0.0):
        raise ValueError("cannot take log of non-positive series values")
    x = np.log1p(t)
    y = np.log(v)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = max(t.size - 2, 1)
    stderr = float(math.sqrt(float(np.sum(resid**2)) / dof / sxx))
    return RateFit(slope=slope, intercept=intercept, stderr=stderr,
                   window=(float(window[0]), float(window[1])), n_points=int(t.size))


def gap_weight(t, n: int):
    """Dimension-dependent weight of the nonlinear-gap ratio.

    1 in one dimension, ``(1+t)^(-1/2) log(2+t)`` in two,
    ``(1+t)^(-1/2)`` in three and higher.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0):
        raise ValueError("time must be nonnegative")
    if n == 1:
        out = np.ones_like(t_arr)
    elif n == 2:
        out = (1.0 + t_arr) ** -0.5 * np.log(2.0 + t_arr)
    else:
        out = (1.0 + t_arr) ** -0.5
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# series extraction
# ---------------------------------------------------------------------------


def _check_series_length(size: int) -> None:
    """ValueError unless a trajectory of ``size`` output times can be fitted."""
    if size < 8:
        raise ValueError(f"trajectory has {size} output times, need >= 8")


def decay_series(run: Trajectory, k_list: Sequence[int]) -> list[DecaySeries]:
    """Sobolev norms of the displacement along a trajectory, one series per ``k``.

    The L^2 norm of the order-k radial derivative, a Plancherel sum over the
    stored half spectra.  Needs at least 8 output times so downstream fits
    are meaningful.
    """
    if not k_list:
        raise ValueError("k_list must be nonempty")
    _check_series_length(run.times.size)
    u_hat = run.spectra[:, 0]
    return [DecaySeries(times=run.times.copy(), values=sobolev_norm(run.grid, u_hat, k),
                        k=int(k), norm_kind="sobolev2", source="nonlinear")
            for k in k_list]


_RADIAL_SOURCE = {"linear": "linear", "gap": "profile_gap"}


def radial_decay_series(data: RadialData, times: Sequence[float],
                        k_list: Sequence[int], n: int, params: ModelParams,
                        which: str | Sequence[str] = "linear") -> list[DecaySeries]:
    """Continuum radial norms over a time sweep, one series per ``(which, k)``.

    ``which`` is one kernel name or a tuple of them; the series come out
    ordered by ``which``, then by ``k``.  At each time the kernels are
    evaluated once per quadrature node set for every component.
    """
    if not k_list:
        raise ValueError("k_list must be nonempty")
    t_arr = np.asarray(times, dtype=np.float64)
    if t_arr.size < 8:
        raise ValueError(f"time sweep has {t_arr.size} points, need >= 8")
    whiches = (which,) if isinstance(which, str) else tuple(which)
    if not whiches:
        raise ValueError("which must name at least one kernel")
    components = [(w, int(k)) for w in whiches for k in k_list]

    rows = [linear_norm_radial(data, float(t), components, n, params) for t in t_arr]
    return [DecaySeries(times=t_arr.copy(), values=np.asarray([row[i] for row in rows]),
                        k=k, norm_kind="sobolev2", source=_RADIAL_SOURCE.get(w, w))
            for i, (w, k) in enumerate(components)]


#: derivative orders of the small-data theory's solution space and data norm
_THEORY_ORDERS = (0, 1, 2)


def xnorm_proxy(run: Trajectory, n: int) -> np.ndarray:
    """Decay-weighted amplitude ``max_k (1+t)^(n/4 + k/2) || |grad|^k u(t) ||_L2``.

    The sup over time of this quantity is the solution-space size used by the
    small-data theory; boundedness along a run is the practical check that
    the iteration stayed in the contraction regime.
    """
    u_hat = run.spectra[:, 0]
    return np.max([(1.0 + run.times) ** (0.25 * n + 0.5 * k)
                   * sobolev_norm(run.grid, u_hat, k) for k in _THEORY_ORDERS], axis=0)


def initial_data_size(u0: PhysicalField, u1: PhysicalField) -> float:
    """Size of the initial data in the norm the small-data theory controls.

    Sum of the L1 and H^2 norms of the displacement plus, for the
    velocity, an antiderivative L1 norm (the homogeneous negative-order
    quantity; in one dimension computed literally via the spectral
    antiderivative, otherwise replaced by the negative-order L2 norm) and the
    H^2 norm.  Used to gate smallness before a nonlinear run.
    """
    g = u0.grid
    u0_hat, u1_hat = forward_transform(g, np.stack([u0.values, u1.values]))
    total = l1_norm(u0)
    total += sum(sobolev_norm(g, u0_hat, k) for k in _THEORY_ORDERS)
    mean_scale = g.dxi ** (g.n / 2.0) * abs(u1_hat[(0,) * g.n])
    if mean_scale > 1e-12 * max(sobolev_norm(g, u1_hat), 1e-300):
        raise ValueError("velocity must have zero mean for the negative-order norm")
    if g.n == 1:
        xi = TWO_PI * np.fft.rfftfreq(g.N, d=g.dx)
        inv = np.zeros_like(u1_hat)
        nz = xi != 0.0
        inv[nz] = u1_hat[nz] / (1j * xi[nz])
        anti = PhysicalField(g, inverse_transform(g, inv))
        neg_part = max(neg_sobolev_norm(g, u1_hat), l1_norm(anti))
    else:
        neg_part = neg_sobolev_norm(g, u1_hat)
    total += neg_part
    total += sum(sobolev_norm(g, u1_hat, k) for k in _THEORY_ORDERS)
    return float(total)


# ---------------------------------------------------------------------------
# pointwise envelope certification
# ---------------------------------------------------------------------------

#: envelope statements about the propagator kernels that can be certified
BOUND_KINDS = ("sine_envelope", "cosine_envelope",
               "profile_remainder_sine", "profile_remainder_cosine")


@dataclass(frozen=True)
class BoundCertificate:
    """Empirical certificate ``lhs <= sup_ratio * weight * exp(-c * env * t)``."""

    which: str
    fitted_c: float
    sup_ratio: float
    passed: bool
    grid_spec: str
    cap: float


def _bound_log_ratio(which: str, xi: np.ndarray, t: np.ndarray,
                     params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """log(lhs/weight) and the envelope exponent grid for one bound kind."""
    xi_col = xi[:, None]
    t_row = t[None, :]
    xi2 = xi_col**2
    if which in ("sine_envelope", "cosine_envelope"):
        sym = propagator(xi2, t_row, params)
        heat = xi2 * (1.0 + xi2)
        if which == "sine_envelope":
            lhs = heat * np.abs(sym.sine) ** 2 + np.abs(sym.sine_dt) ** 2
            weight = np.ones_like(lhs)
        else:
            lhs = heat * np.abs(sym.cosine) ** 2 + np.abs(sym.cosine_dt) ** 2
            weight = np.broadcast_to(heat, lhs.shape)
        env = decay_envelope(xi2) * t_row
    else:
        sym = propagator(xi2, t_row, params)
        g0, h0 = profile_symbols(xi2, t_row, params)
        if which == "profile_remainder_sine":
            lhs = np.abs(sym.sine - g0)
            weight = np.ones_like(lhs)
        else:
            lhs = np.abs(sym.cosine - h0)
            weight = np.broadcast_to(xi_col, lhs.shape)
        env = xi2 * t_row
    with np.errstate(divide="ignore"):
        log_ratio = np.log(lhs) - np.log(weight)
    return log_ratio, np.broadcast_to(env, log_ratio.shape)


def certify_bound(which: str, xi_grid: np.ndarray, t_grid: np.ndarray,
                  c_candidates: Sequence[float], params: ModelParams,
                  r0: float = 0.5, cap: float = 1e3) -> BoundCertificate:
    """Certify a kernel envelope by sweeping decay-rate candidates.

    For each candidate ``c`` (descending) the sup over the grid of
    ``lhs * exp(+c * env) / weight`` is computed in log space; the first
    (largest) ``c`` whose sup stays below ``cap`` is returned together with
    that sup.  ``c = 0`` always yields a finite sup (>= 1 for the kernel
    envelopes, which equal their weight at t = 0).  Profile-remainder bounds
    are low-frequency statements and are restricted to ``xi <= r0``.
    """
    if which not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {which!r}; expected one of {BOUND_KINDS}")
    xi = np.asarray(xi_grid, dtype=np.float64)
    t = np.asarray(t_grid, dtype=np.float64)
    if xi.ndim != 1 or t.ndim != 1 or xi.size == 0 or t.size == 0:
        raise ValueError("xi_grid and t_grid must be nonempty 1-d arrays")
    if np.any(xi < 0.0) or np.any(t < 0.0):
        raise ValueError("grids must be nonnegative")
    cands = sorted({float(c) for c in c_candidates}, reverse=True)
    if not cands or cands[-1] < 0.0:
        raise ValueError("need nonnegative decay-rate candidates")

    if which.startswith("profile_remainder"):
        keep = xi <= r0
        if not np.any(keep):
            raise ValueError(f"no grid frequencies at or below r0={r0}")
        xi = xi[keep]
    log_ratio, env = _bound_log_ratio(which, xi, t, params)
    grid_spec = (f"xi[{xi.min():.3g},{xi.max():.3g}]x{xi.size}, "
                 f"t[{t.min():.3g},{t.max():.3g}]x{t.size}, alpha={params.alpha:g}")
    log_cap = math.log(cap)

    chosen = None
    sup_log = math.inf
    for c in cands:
        m = float(np.max(log_ratio + c * env))
        if m <= log_cap:
            chosen = c
            sup_log = m
            break
        sup_log = m  # sup at the smallest candidate if none passes
    passed = chosen is not None
    sup_ratio = math.exp(sup_log) if sup_log < 700.0 else math.inf
    return BoundCertificate(which=which,
                            fitted_c=chosen if passed else math.nan,
                            sup_ratio=sup_ratio, passed=passed,
                            grid_spec=grid_spec, cap=float(cap))


def default_certify_grids() -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced frequency grid [1e-3, 1e2] and time grid {0} + log [1e-2, 1e3],
    200 points each."""
    xi = np.logspace(-3.0, 2.0, 200)
    t = np.concatenate([[0.0], np.logspace(-2.0, 3.0, 199)])
    return xi, t


# ---------------------------------------------------------------------------
# bilinear product estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductCheck:
    """Measured instances ``lhs <= C * rhs`` of one product estimate, one per
    stacked pair of fields (numpy scalars for a single pair)."""

    instance: str
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def constant(self) -> np.ndarray:
        """``lhs / rhs`` per pair, NaN where ``rhs`` is not positive."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.rhs > 0.0, self.lhs / self.rhs, math.nan)


def product_estimate_check(grid: Grid, v: np.ndarray, w: np.ndarray,
                           m: int) -> list[ProductCheck]:
    """Measure the product/difference estimates for the square nonlinearity.

    ``v`` and ``w`` are real samples shaped ``(*stack, *grid.shape)``: every
    stacked pair ``(v, w)`` is one instance, and all of them are measured in
    one pass, with per-line transforms and norms reduced over each pair's
    own samples, so each pair's numbers are those of a call on it alone.
    Instances, with ``D^m`` the radial pseudo-derivative of order ``m``:

    * ``sq_l1``:   ||D^m(v^2)||_L1 <= C ||v||_L2 ||D^m v||_L2  (m = 0 is the
      Cauchy-Schwarz equality case: both sides are computed as the identical
      quadrature sum, so the constant is exactly 1)
    * ``sq_l2``:   ||D^m(v^2)||_L2 <= C ||v||_Linf ||D^m v||_L2
    * ``diff_l1``, ``diff_l2``: the same with ``v^2 - w^2`` on the left and
      ``||D^m v||_q ||v-w||_p + (||v||_p + ||w||_p) ||D^m(v-w)||_q`` on the
      right.

    The norms are rectangle rules over the samples, that of
    :func:`~bousslab.spectral.l1_norm` and its L^2 and sup analogues.
    """
    if m not in (0, 1):
        raise ValueError(f"only derivative orders 0 and 1 are checked, got {m}")
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if v.shape != w.shape or v.shape[v.ndim - grid.n:] != grid.shape:
        raise ValueError(f"fields of shapes {v.shape} and {w.shape} do not both "
                         f"live on the grid of shape {grid.shape}")
    flat = v.shape[:v.ndim - grid.n] + (-1,)

    # each norm reduces the samples of one field along the last axis
    def l1(f: np.ndarray) -> np.ndarray:
        return grid.cell_volume * np.sum(np.abs(f).reshape(flat), axis=-1)

    def l2(f: np.ndarray) -> np.ndarray:
        return np.sqrt(grid.cell_volume * np.sum((f * f).reshape(flat), axis=-1))

    def linf(f: np.ndarray) -> np.ndarray:
        return np.max(np.abs(f).reshape(flat), axis=-1)

    # the four fields D^m acts on, stacked for one forward and one inverse pass
    fields = np.empty((4,) + v.shape)
    vv, _, diff_sq, vw_diff = fields
    np.square(v, out=vv)
    fields[1] = v
    np.subtract(vv, np.square(w), out=diff_sq)
    np.subtract(v, w, out=vw_diff)
    d_vv, d_v, d_diff_sq, d_vw_diff = fields
    if m == 1:
        coeffs = forward_transform(grid, fields)
        coeffs *= np.sqrt(grid.xi2_half)
        d_vv, d_v, d_diff_sq, d_vw_diff = inverse_transform(grid, coeffs)

    # L1-route: (r, p, q) = (1, 2, 2); for m = 0 the right side is the left
    # side's sum, since |v^2| is v^2
    rhs_sq_l1 = (grid.cell_volume * np.sum(vv.reshape(flat), axis=-1) if m == 0
                 else l2(v) * l2(d_v))
    return [
        ProductCheck("sq_l1", l1(d_vv), rhs_sq_l1),
        # Linf-route: (r, p, q) = (2, inf, 2)
        ProductCheck("sq_l2", l2(d_vv), linf(v) * l2(d_v)),
        # difference forms
        ProductCheck("diff_l1", l1(d_diff_sq),
                     l2(d_v) * l2(vw_diff) + (l2(v) + l2(w)) * l2(d_vw_diff)),
        ProductCheck("diff_l2", l2(d_diff_sq),
                     l2(d_v) * linf(vw_diff) + (linf(v) + linf(w)) * l2(d_vw_diff)),
    ]
