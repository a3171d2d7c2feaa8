"""Periodic grids, unitary Fourier transforms, and norm evaluation.

Conventions used throughout the package:

* Forward transform (continuum normalisation):
  ``F[u](xi) = (2 pi)^(-n/2) * integral u(x) exp(-i xi.x) dx``,
  realised on the discrete box by the rectangle rule,
  ``coeffs = (L/N)^n * (2 pi)^(-n/2) * fftn(values)``.
  With this convention the unit-width Gaussian ``exp(-|x|^2/2)`` is its own
  transform, and the surface constants of the radial norm quadrature are
  ``c_1 = 2``, ``c_2 = 2 pi``, ``c_3 = 4 pi``.
* Parseval holds exactly on the lattice:
  ``(L/N)^n * sum |values|^2 == (2 pi / L)^n * sum |coeffs|^2``
  up to rounding, which makes Plancherel-based Sobolev norms and physical
  quadrature interchangeable.
* Frequencies are ``xi = 2 pi m / L`` with integer multi-index ``m`` in
  ``[-N/2, N/2)`` per axis, stored in ``numpy.fft`` ordering; ``xi = 0``
  occurs exactly once.  ``N`` even keeps the Nyquist mode unpaired but the
  radial multipliers ``|xi|^k`` used for derivatives are even in ``xi``, so
  real fields round-trip exactly.
* Physical coordinates are centred, ``x in [-L/2, L/2)`` per axis, which is
  convenient for compactly supported data.  Coefficient phases refer to the
  FFT sample ordering; everything downstream (norms, radial multipliers)
  depends only on ``|coeffs|`` and ``|xi|``.
* The solvers carry real fields as half spectra (``rfftn`` layout): the full
  lattice on the first ``n - 1`` axes and ``m = 0 .. N/2`` on the last, shape
  :attr:`Grid.half_shape`.  The other half is the complex conjugate of the
  mode ``-m``, so Hermitian symmetry holds by construction and
  :func:`half_to_full` rebuilds the full spectrum exactly.  The 2/3 mask and
  ``|xi|^2`` restrict unchanged to the half lattice.  Parseval on the half
  lattice weighs each mode by its multiplicity (:attr:`Grid.half_multiplicity`):
  1 on the last-axis planes ``m = 0`` and ``m = N/2``, which hold their own
  conjugates, and 2 elsewhere.  :func:`half_forward` / :func:`half_inverse`
  transform over the last ``n`` axes, so a leading stack axis (for example
  ``(u, u_t)``) is transformed in one batched call; they make the per-axis
  ``numpy.fft`` calls of ``rfftn``/``irfftn`` themselves, the same calls the
  source evaluator of :mod:`bousslab.nonlinear` prunes to the 2/3 band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

#: surface measure of the unit sphere in R^n, n = 1, 2, 3
SPHERE_SURFACE = {1: 2.0, 2: TWO_PI, 3: 2.0 * TWO_PI}


class QuadratureError(RuntimeError):
    """Raised when the radial quadrature tail or refinement fails to converge."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on ``[-L/2, L/2)^n`` with ``N`` points per axis."""

    n: int
    L: float
    N: int

    def __post_init__(self) -> None:
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if not (self.L > 0.0) or not math.isfinite(self.L):
            raise ValueError(f"box size must be positive and finite, got {self.L}")
        if self.N < 8:
            raise ValueError(f"need at least 8 points per axis, got {self.N}")
        if self.N % 2 != 0:
            raise ValueError(f"points per axis must be even, got {self.N}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def dxi(self) -> float:
        """Spectral lattice spacing 2*pi/L."""
        return TWO_PI / self.L

    @property
    def cell_volume(self) -> float:
        return self.dx**self.n

    @cached_property
    def xi_axis(self) -> np.ndarray:
        """Frequencies 2*pi*m/L along one axis, in FFT ordering."""
        xi = TWO_PI * np.fft.fftfreq(self.N, d=self.dx)
        xi.flags.writeable = False
        return xi

    @cached_property
    def xi2(self) -> np.ndarray:
        """Lattice of |xi|^2, shape ``self.shape``."""
        axes = np.meshgrid(*([self.xi_axis] * self.n), indexing="ij", sparse=True)
        out = sum(a * a for a in axes)
        out = np.ascontiguousarray(out)
        out.flags.writeable = False
        return out

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean 2/3-rule mask: keep |m| <= N//3 on every axis."""
        m = np.fft.fftfreq(self.N, d=1.0 / self.N)  # integer mode numbers
        keep = np.abs(m) <= self.N // 3
        axes = np.meshgrid(*([keep] * self.n), indexing="ij", sparse=True)
        out = axes[0]
        for a in axes[1:]:
            out = out & a
        out = np.ascontiguousarray(np.broadcast_to(out, self.shape))
        out.flags.writeable = False
        return out

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of a half spectrum: ``N//2 + 1`` modes on the last axis."""
        return self.shape[:-1] + (self.N // 2 + 1,)

    @cached_property
    def axes(self) -> tuple[int, ...]:
        """The spatial axes of a field array with leading stack axes."""
        return tuple(range(-self.n, 0))

    @cached_property
    def fft_scale(self) -> float:
        """Factor from ``fftn`` sums to unitary-convention coefficients."""
        return self.cell_volume * TWO_PI ** (-0.5 * self.n)

    # the half lattice is the first N//2 + 1 last-axis indices of the full
    # one; index N/2 holds the mode -N/2, whose |m| and |xi| equal those of
    # the +N/2 mode that rfftn stores there

    @cached_property
    def xi2_half(self) -> np.ndarray:
        """|xi|^2 on the half lattice, shape ``self.half_shape``."""
        return _frozen(self.xi2[..., : self.N // 2 + 1])

    @cached_property
    def dealias_mask_half(self) -> np.ndarray:
        """The 2/3-rule mask on the half lattice."""
        return _frozen(self.dealias_mask[..., : self.N // 2 + 1])

    @cached_property
    def half_multiplicity(self) -> np.ndarray:
        """Parseval weight of each last-axis index of the half lattice (1 or 2)."""
        mult = np.full(self.N // 2 + 1, 2.0)
        mult[0] = mult[-1] = 1.0
        mult.flags.writeable = False
        return mult

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Per-axis physical coordinates, centred at the origin."""
        x = -0.5 * self.L + self.dx * np.arange(self.N)
        return (x,) * self.n

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Full coordinate mesh (sparse broadcasting arrays)."""
        return tuple(np.meshgrid(*self.coordinates(), indexing="ij", sparse=True))


def make_grid(n: int, L: float, N: int) -> Grid:
    """Build a periodic grid; rejects odd ``N``, ``N < 8``, ``L <= 0``, bad ``n``."""
    return Grid(n=n, L=float(L), N=int(N))


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PhysicalField:
    """Real samples on a grid, immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", _frozen(vals))

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[..., np.ndarray]) -> "PhysicalField":
        """Sample ``fn(x)``(1d) / ``fn(x, y)`` / ``fn(x, y, z)`` on the centred mesh."""
        vals = np.broadcast_to(fn(*grid.mesh()), grid.shape)
        return cls(grid, vals)

    @classmethod
    def zero(cls, grid: Grid) -> "PhysicalField":
        return cls(grid, np.zeros(grid.shape))


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients on a grid, immutable after construction."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coef = np.asarray(self.coeffs, dtype=np.complex128)
        if coef.shape != self.grid.shape:
            raise ValueError(f"coeffs shape {coef.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(coef)):
            raise ValueError("spectrum contains non-finite values")
        object.__setattr__(self, "coeffs", _frozen(coef))

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))


def forward_transform(f: PhysicalField) -> SpectralField:
    """Unitary-convention forward transform (rectangle-rule Fourier integral)."""
    g = f.grid
    return SpectralField(g, g.fft_scale * np.fft.fftn(f.values))


def inverse_transform(F: SpectralField) -> PhysicalField:
    """Inverse of :func:`forward_transform`; rejects non-Hermitian spectra."""
    g = F.grid
    scale = TWO_PI ** (0.5 * g.n) / g.cell_volume
    w = scale * np.fft.ifftn(F.coeffs)
    re_scale = float(np.max(np.abs(w.real))) if w.size else 0.0
    im_max = float(np.max(np.abs(w.imag))) if w.size else 0.0
    if im_max > 1e-8 * (re_scale + 1e-300):
        raise ValueError(
            "coefficients are not Hermitian-symmetric; inverse transform "
            "would produce a complex field"
        )
    return PhysicalField(g, w.real)


def half_forward(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Unitary half spectrum of real samples shaped ``(..., *grid.shape)``.

    The per-axis ``numpy.fft`` calls that ``rfftn`` makes (``rfft`` on the
    last axis, then ``fft`` over the other spatial axes, last first), so the
    values are those of ``rfftn``.
    """
    out = np.fft.rfft(values, axis=-1)
    for ax in reversed(grid.axes[:-1]):
        np.fft.fft(out, axis=ax, out=out)
    out *= grid.fft_scale
    return out


def half_inverse(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples of half spectra shaped ``(..., *grid.half_shape)``.

    The per-axis ``numpy.fft`` calls that ``irfftn`` makes (``ifft`` over the
    leading spatial axes in order, then ``irfft`` on the last), so the values
    are those of ``irfftn``; ``coeffs`` is left unchanged.
    """
    work = coeffs
    for ax in grid.axes[:-1]:
        work = np.fft.ifft(work, axis=ax, out=None if work is coeffs else work)
    out = np.fft.irfft(work, n=grid.N, axis=-1)
    out /= grid.fft_scale
    return out


def half_l2(grid: Grid, coeffs: np.ndarray) -> float:
    """L^2 norm of the real field with half spectrum ``coeffs`` (Plancherel).

    The squares are summed per last-axis (real, imaginary) column and only
    those column sums are weighted, so no temporary of the size of
    ``coeffs`` is made.
    """
    pairs = np.ascontiguousarray(coeffs).view(np.float64)
    pairs = pairs.reshape(-1, pairs.shape[-1])
    columns = np.einsum("ij,ij->j", pairs, pairs).reshape(-1, 2).sum(axis=1)
    return math.sqrt(grid.dxi**grid.n * float(grid.half_multiplicity @ columns))


def half_to_full(grid: Grid, coeffs: np.ndarray) -> SpectralField:
    """The full spectrum of a half spectrum, completed by conjugate symmetry."""
    h = grid.N // 2 + 1
    # full index N - k on the last axis is the conjugate of half index k, and
    # index j on every other axis pairs with (-j) mod N
    mirror = coeffs[..., h - 2:0:-1]
    for ax in range(grid.n - 1):
        mirror = np.roll(np.flip(mirror, axis=ax), 1, axis=ax)
    return SpectralField(grid, np.concatenate([coeffs, np.conj(mirror)], axis=-1))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

_NORM_KINDS = ("lp", "linf", "sobolev", "neg_sobolev")


@dataclass(frozen=True)
class NormSpec:
    """Which norm to evaluate.

    kind:
      * ``lp``          -- Lebesgue norm, ``p`` in {1, 2, inf}, rectangle rule
      * ``linf``        -- sup norm (same as lp with p=inf)
      * ``sobolev``     -- ``|| |xi|^k u ||_{L^2}`` via Plancherel (p fixed to 2)
      * ``neg_sobolev`` -- homogeneous negative norm ``|| |xi|^{-1} u ||_{L^2}``,
        requires the mean (xi = 0 coefficient) to vanish
    """

    kind: str
    k: int = 0
    p: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in _NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.k < 0 or int(self.k) != self.k:
            raise ValueError(f"derivative order must be a nonnegative integer, got {self.k}")
        if self.kind == "lp" and self.p not in (1.0, 2.0, math.inf):
            raise ValueError(f"only p in {{1, 2, inf}} is supported, got {self.p}")
        if self.kind == "sobolev" and self.p != 2.0:
            raise ValueError("Sobolev norms are L^2-based (p must be 2)")
        if self.kind in ("lp", "linf", "neg_sobolev") and self.k != 0:
            raise ValueError(f"norm kind {self.kind!r} does not take a derivative order")


def _as_physical(field) -> PhysicalField:
    if isinstance(field, PhysicalField):
        return field
    if isinstance(field, SpectralField):
        return inverse_transform(field)
    raise TypeError(f"expected a field, got {type(field).__name__}")


def _as_spectral(field) -> SpectralField:
    if isinstance(field, SpectralField):
        return field
    if isinstance(field, PhysicalField):
        return forward_transform(field)
    raise TypeError(f"expected a field, got {type(field).__name__}")


def norm(field, spec: NormSpec) -> float:
    """Evaluate a norm of a physical or spectral field (transforms as needed)."""
    g = field.grid
    if spec.kind == "linf" or (spec.kind == "lp" and spec.p == math.inf):
        v = _as_physical(field).values
        return float(np.max(np.abs(v)))
    if spec.kind == "lp":
        v = _as_physical(field).values
        if spec.p == 1.0:
            return float(g.cell_volume * np.sum(np.abs(v)))
        return float(math.sqrt(g.cell_volume * float(np.sum(v * v))))
    c = _as_spectral(field).coeffs
    power = np.abs(c) ** 2
    if spec.kind == "sobolev":
        w = g.xi2 ** spec.k if spec.k else 1.0
        return float(math.sqrt(g.dxi**g.n * float(np.sum(w * power))))
    # neg_sobolev
    l2 = math.sqrt(g.dxi**g.n * float(np.sum(power)))
    zero_index = (0,) * g.n
    mean_weight = g.dxi ** (0.5 * g.n) * abs(c[zero_index])
    if mean_weight > 1e-10 * l2:
        raise ValueError("not in homogeneous negative space (nonzero mean)")
    with np.errstate(divide="ignore"):
        inv = np.where(g.xi2 > 0.0, 1.0 / np.where(g.xi2 > 0.0, g.xi2, 1.0), 0.0)
    return float(math.sqrt(g.dxi**g.n * float(np.sum(inv * power))))


def l1_norm(field) -> float:
    return norm(field, NormSpec("lp", p=1.0))


def l2_norm(field) -> float:
    return norm(field, NormSpec("lp", p=2.0))


def linf_norm(field) -> float:
    return norm(field, NormSpec("linf"))


def sobolev_norm(field, k: int) -> float:
    """``|| |xi|^k u ||_{L^2}`` (radial pseudo-derivative of order k)."""
    return norm(field, NormSpec("sobolev", k=k))


def neg_sobolev_norm(field) -> float:
    """Homogeneous negative norm ``|| |xi|^{-1} u ||_{L^2}`` (mean-zero fields)."""
    return norm(field, NormSpec("neg_sobolev"))


# ---------------------------------------------------------------------------
# radial quadrature (continuum norms of radially symmetric spectra)
# ---------------------------------------------------------------------------

#: most nodes one panel sum may use; the shipped configs stay below 2^15
_MAX_NODES = 2**20


@lru_cache(maxsize=8)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_sum(f: Callable[[np.ndarray, np.ndarray], np.ndarray], live: np.ndarray,
               a: float, b: float, panels: int, order: int = 12) -> np.ndarray:
    """Composite Gauss-Legendre sums over ``[a, b]`` of the ``live`` rows of ``f``.

    Raises :class:`QuadratureError` rather than evaluate more than
    ``_MAX_NODES`` nodes or sum non-finite values.
    """
    if panels * order > _MAX_NODES:
        raise QuadratureError(
            f"radial quadrature did not converge: a panel sum on [{a:g}, {b:g}] "
            f"would need {panels * order} nodes (limit {_MAX_NODES})")
    x, w = _leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = (mid + half * x[None, :]).ravel()
    vals = np.asarray(f(nodes, live), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError(
            f"radial quadrature did not converge: non-finite integrand values "
            f"on [{a:g}, {b:g}]")
    weighted = vals * (half * w[None, :]).ravel()
    # one 1-D sum per row: the same summation order as a scalar integrand
    return np.array([np.sum(row) for row in weighted])


def _refined_integral(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      live: np.ndarray, a: float, b: float, panels0: int,
                      rtol: float, atol: np.ndarray) -> np.ndarray:
    """Integrals of the ``live`` rows of ``f`` over ``[a, b]`` by panel doubling.

    Each row stops at the first doubling where it changes by at most
    ``max(rtol * |value|, atol[row])`` and is left out of later panel sums.
    """
    panels = max(4, int(panels0))
    out = np.empty(live.size)
    rows = np.arange(live.size)  # positions in ``live`` still refining
    prev = _panel_sum(f, live, a, b, panels)
    for _ in range(12):
        panels *= 2
        cur = _panel_sum(f, live[rows], a, b, panels)
        done = np.abs(cur - prev) <= np.maximum(rtol * np.abs(cur), atol[rows])
        out[rows[done]] = cur[done]
        rows, prev = rows[~done], cur[~done]
        if rows.size == 0:
            return out
    raise QuadratureError(
        f"radial quadrature did not converge to rtol={rtol:g} on [{a:g}, {b:g}]"
    )


def _radial_integral(integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     count: int, cutoff: float, panels0: int, rtol: float,
                     substitution_power: int, max_doublings: int) -> np.ndarray:
    """``int_0^inf integrand(r)[i] dr`` for each of ``count`` components.

    ``integrand(r, live)`` returns the rows ``live`` (an index array) at the
    nodes ``r``, shape ``(live.size, r.size)``, so one kernel evaluation per
    node set serves every component.  Each row keeps its own convergence
    state, exactly as if it were integrated alone: panel doubling on
    ``[0, cutoff]`` to ``rtol``, then the truncation check on
    ``[cutoff, 2 cutoff]`` with an absolute floor of 1e-13 of its own body;
    a relative tail above 1e-12 doubles its cutoff, at most
    ``max_doublings`` times.  Finished rows drop out of later panel sums.

    ``substitution_power = q`` integrates in the variable ``s = r^(1/q)``,
    which regularises integrable endpoint singularities ``r^(-a)`` with
    ``q * (1 - a) >= 1``.
    """
    q = int(substitution_power)
    if q < 1:
        raise ValueError("substitution power must be a positive integer")
    if q == 1:
        g = integrand
    else:
        def g(s: np.ndarray, live: np.ndarray) -> np.ndarray:
            return q * s ** (q - 1) * integrand(s**q, live)

    totals = np.empty(count)
    live = np.arange(count)
    c = float(cutoff)
    for _ in range(max_doublings + 1):
        body = _refined_integral(g, live, 0.0, c ** (1.0 / q), panels0, rtol,
                                 np.full(live.size, 1e-300))
        # the tail only needs to be located to ~1e-13 of the body, so the
        # refinement there carries an absolute floor (tiny tails stop early)
        tail = _refined_integral(g, live, c ** (1.0 / q), (2.0 * c) ** (1.0 / q),
                                 max(8, panels0 // 2), 1e-6,
                                 1e-13 * np.maximum(np.abs(body), 1e-300))
        total = body + np.maximum(tail, 0.0)
        done = np.abs(tail) <= 1e-12 * np.maximum(np.abs(total), 1e-300)
        totals[live[done]] = total[done]
        live = live[~done]
        if live.size == 0:
            return totals
        c *= 2.0
    raise QuadratureError(
        f"radial quadrature did not converge: tail check failed after "
        f"{max_doublings} cutoff doublings (last cutoff {c:g})"
    )


def radial_norm_quadrature(spectral_profile: Callable[[np.ndarray], np.ndarray],
                           k: int, n: int, cutoff: float, points: int = 96,
                           rtol: float = 1e-9, substitution_power: int = 1,
                           max_doublings: int = 3) -> float:
    """Continuum norm of a radial spectrum: ``sqrt(c_n int_0^inf r^(2k+n-1) |P(r)|^2 dr)``.

    ``c_n`` is the unit-sphere surface measure (2, 2*pi, 4*pi for n = 1, 2, 3),
    so the result equals the L^2 norm of the order-``k`` radial derivative of
    the field whose (unitary-convention) transform has radial profile ``P``.
    The cutoff truncation is verified by integrating ``[cutoff, 2*cutoff]``;
    a relative tail above 1e-12 doubles the cutoff, at most ``max_doublings``
    times.  This is the one-component case of the integrator behind
    :func:`bousslab.linear.linear_norm_radial`.
    """
    if n not in SPHERE_SURFACE:
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    if k < 0 or int(k) != k:
        raise ValueError(f"derivative order must be a nonnegative integer, got {k}")
    if not (cutoff > 0.0):
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    weight = 2 * int(k) + n - 1

    def integrand(r: np.ndarray, live: np.ndarray) -> np.ndarray:
        p = np.asarray(spectral_profile(r))
        return (r**weight * np.abs(p) ** 2)[None, :]

    panels0 = max(4, int(points) // 12)
    (value,) = _radial_integral(integrand, 1, cutoff, panels0, rtol,
                                substitution_power, max_doublings)
    return math.sqrt(SPHERE_SURFACE[n] * max(value, 0.0))
