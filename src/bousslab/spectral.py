"""Periodic grids, unitary Fourier transforms on the half lattice, and norms.

Conventions used throughout the package:

* Real fields are carried as half spectra, the one spectral format of the
  package (``rfftn`` layout): every mode on the first ``n - 1`` axes and
  ``m = 0 .. N/2`` on the last, shape :attr:`Grid.half_shape`.  The
  other half is the complex conjugate of the mode ``-m``, so Hermitian
  symmetry holds by construction and every half spectrum is the transform
  of a real field.
* Forward transform (continuum normalisation):
  ``F[u](xi) = (2 pi)^(-n/2) * integral u(x) exp(-i xi.x) dx``,
  realised on the discrete box by the rectangle rule,
  ``coeffs = (L/N)^n * (2 pi)^(-n/2) * rfftn(values)``
  (:func:`forward_transform`; :func:`inverse_transform` undoes it).
  With this convention the unit-width Gaussian ``exp(-|x|^2/2)`` is its own
  transform.  Both transforms act on the last ``n`` axes, so a leading
  stack axis (for example ``(u, u_t)``, or the output times of a
  trajectory) is transformed in one batched call; they make the per-axis
  ``numpy.fft`` calls of ``rfftn``/``irfftn`` themselves, the same calls
  the source evaluator of :mod:`bousslab.nonlinear` prunes to the 2/3 band.
* Parseval holds exactly on the lattice once each half-lattice mode is
  weighed by its multiplicity (:attr:`Grid.half_multiplicity`): 1 on the
  last-axis planes ``m = 0`` and ``m = N/2``, which hold their own
  conjugates, and 2 elsewhere,
  ``(L/N)^n * sum |values|^2 == (2 pi / L)^n * sum mult |coeffs|^2``
  up to rounding, so the Sobolev norms are Plancherel sums on the half
  spectrum (:func:`sobolev_norm`) and only the Lebesgue norm
  :func:`l1_norm` reads physical samples.
* Frequencies are ``xi = 2 pi m / L`` with integer multi-index ``m`` in
  ``[-N/2, N/2)`` per axis, in ``numpy.fft`` ordering; ``xi = 0`` occurs
  exactly once.  :class:`Grid` builds ``|xi|^2`` and the 2/3-rule mask on
  the half lattice alone, from ``fftfreq`` whole on the first ``n - 1``
  axes and its first ``N/2 + 1`` entries on the last: the last-axis index
  ``N/2`` holds ``m = -N/2``, whose square is bitwise that of the Nyquist
  mode ``+N/2`` that ``rfftn`` stores there.
* Physical coordinates are centred, ``x in [-L/2, L/2)`` per axis, which is
  convenient for compactly supported data.  Coefficient phases refer to the
  FFT sample ordering; everything downstream (norms, radial multipliers)
  depends only on ``|coeffs|`` and ``|xi|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


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
        """Factor from discrete Fourier sums to unitary-convention coefficients."""
        return self.cell_volume * TWO_PI ** (-0.5 * self.n)

    @property
    def dealias_cut(self) -> int:
        """Largest ``|m|`` the 2/3 rule keeps on every axis (Orszag 1971)."""
        return self.N // 3

    def _on_half_lattice(self, per_axis: np.ndarray, combine: np.ufunc) -> np.ndarray:
        """``per_axis`` (``fftfreq`` order) on every axis of the half lattice,
        its first ``N//2 + 1`` entries on the last, folded by ``combine``."""
        axes = [per_axis] * (self.n - 1) + [per_axis[: self.N // 2 + 1]]
        out = reduce(combine, np.meshgrid(*axes, indexing="ij", sparse=True))
        return _frozen(np.broadcast_to(out, self.half_shape))

    @cached_property
    def xi2_half(self) -> np.ndarray:
        """|xi|^2 on the half lattice, shape ``self.half_shape``."""
        xi = TWO_PI * np.fft.fftfreq(self.N, d=self.dx)
        return self._on_half_lattice(xi * xi, np.add)

    @cached_property
    def dealias_mask_half(self) -> np.ndarray:
        """The 2/3-rule mask on the half lattice: ``|m| <= dealias_cut`` on every axis."""
        m = np.fft.fftfreq(self.N, d=1.0 / self.N)  # integer mode numbers
        return self._on_half_lattice(np.abs(m) <= self.dealias_cut, np.logical_and)

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


def forward_transform(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Unitary half spectra of real samples shaped ``(..., *grid.shape)``.

    The per-axis ``numpy.fft`` calls that ``rfftn`` makes (``rfft`` on the
    last axis, then ``fft`` over the other spatial axes, last first), so the
    values are those of ``rfftn``.
    """
    out = np.fft.rfft(values, axis=-1)
    for ax in reversed(grid.axes[:-1]):
        np.fft.fft(out, axis=ax, out=out)
    out *= grid.fft_scale
    return out


def inverse_transform(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _plancherel(grid: Grid, coeffs: np.ndarray, weight: np.ndarray):
    """``sqrt((2 pi / L)^n sum weight |coeffs|^2)`` over the spatial axes.

    ``weight`` (shape ``grid.half_shape``) carries the half-lattice
    multiplicity.  The sums run in ``einsum``'s own loops over the real and
    imaginary parts, so no temporary of the size of ``coeffs`` is made and
    no BLAS call (whose summation order follows its thread count) is.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape[c.ndim - grid.n:] != grid.half_shape:
        raise ValueError(f"coeffs shape {c.shape} does not end in the half "
                         f"spectrum shape {grid.half_shape}")
    axes = "ijk"[:grid.n]
    rule = f"...{axes},...{axes},{axes}->..."
    total = np.einsum(rule, c.real, c.real, weight) + np.einsum(rule, c.imag, c.imag, weight)
    out = np.sqrt(grid.dxi**grid.n * total)
    return float(out) if out.ndim == 0 else out


def sobolev_norm(grid: Grid, coeffs: np.ndarray, k: int = 0):
    """``|| |xi|^k u ||_{L^2}`` of real fields from their half spectra (Plancherel).

    ``coeffs`` has shape ``(..., *grid.half_shape)``; the result is a float
    for one spectrum and an array over the leading (stack) axes otherwise.
    ``k = 0`` is the L^2 norm, ``k > 0`` the radial pseudo-derivative of
    order ``k``.
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"derivative order must be a nonnegative integer, got {k}")
    mult = np.broadcast_to(grid.half_multiplicity, grid.half_shape)
    return _plancherel(grid, coeffs, grid.xi2_half ** int(k) * mult if k else mult)


def neg_sobolev_norm(grid: Grid, coeffs: np.ndarray) -> float:
    """Homogeneous negative norm ``|| |xi|^{-1} u ||_{L^2}`` of one half spectrum.

    The field must have zero mean (its ``xi = 0`` coefficient vanishes, up
    to 1e-10 of its L^2 norm).
    """
    mean = grid.dxi ** (0.5 * grid.n) * abs(coeffs[(0,) * grid.n])
    if mean > 1e-10 * sobolev_norm(grid, coeffs):
        raise ValueError("not in homogeneous negative space (nonzero mean)")
    xi2 = grid.xi2_half
    with np.errstate(divide="ignore"):
        inv = np.where(xi2 > 0.0, 1.0 / np.where(xi2 > 0.0, xi2, 1.0), 0.0)
    return _plancherel(grid, coeffs, inv * grid.half_multiplicity)


def l1_norm(field: PhysicalField) -> float:
    """``int |u| dx`` by the rectangle rule."""
    return float(field.grid.cell_volume * np.sum(np.abs(field.values)))
