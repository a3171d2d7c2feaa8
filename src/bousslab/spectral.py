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
  transform, and the surface constants of the radial norm quadrature are
  ``c_1 = 2``, ``c_2 = 2 pi``, ``c_3 = 4 pi``.  Both transforms act on the
  last ``n`` axes, so a leading stack axis (for example ``(u, u_t)``, or
  the output times of a trajectory) is transformed in one batched call;
  they make the per-axis ``numpy.fft`` calls of ``rfftn``/``irfftn``
  themselves, the same calls the source evaluator of
  :mod:`bousslab.nonlinear` prunes to the 2/3 band.
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
from functools import cached_property, lru_cache, reduce
from itertools import chain
from typing import Callable, Iterator, Sequence

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


# ---------------------------------------------------------------------------
# radial quadrature (continuum norms of radially symmetric spectra)
# ---------------------------------------------------------------------------

#: most nodes one integrand call may see: a panel sum that needs more raises,
#: and the panel sums batched into one call total at most this many nodes.
#: The shipped configs need one call of at most 9 360 nodes per cutoff
_MAX_NODES = 2**20

#: Gauss-Legendre nodes per panel
_GAUSS_ORDER = 12

#: relative tolerance of the panel doubling over the body ``[0, cutoff]``,
#: three orders above the tail gate's 1e-12
_BODY_RTOL = 1e-9

#: most cutoff doublings the tail check asks for before it raises
_CUTOFF_DOUBLINGS = 3


@lru_cache(maxsize=1)
def _leggauss() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_GAUSS_ORDER)


def _pack_sums(f: Callable[[np.ndarray, np.ndarray], np.ndarray], live: np.ndarray,
               pack: Sequence[tuple[float, float, int]]) -> list[tuple[bool, np.ndarray]]:
    """``(finite, sums)`` per segment of ``pack``, from one call of ``f``.

    Apart from :func:`_panel_sums` so that the node values are freed before
    its caller takes the first sum and refines on.
    """
    x, w = _leggauss()
    nodes, weights = [], []
    for a, b, panels in pack:
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        nodes.append((mid + half * x[None, :]).ravel())
        weights.append((half * w[None, :]).ravel())
    vals = np.asarray(f(np.concatenate(nodes), live), dtype=np.float64)
    out = []
    start = 0
    for wts in weights:
        seg = vals[:, start:start + wts.size]
        start += wts.size
        finite = bool(np.all(np.isfinite(seg)))
        seg *= wts
        # one sum per row along the contiguous node axis: the same summation
        # order as a scalar integrand
        out.append((finite, seg.sum(axis=1)))
    return out


def _panel_sums(f: Callable[[np.ndarray, np.ndarray], np.ndarray], live: np.ndarray,
                segments: Sequence[tuple[float, float, int]]) -> Iterator[np.ndarray]:
    """Composite Gauss-Legendre sums of the ``live`` rows of ``f``, one per segment.

    ``segments`` lists ``(a, b, panels)``; the row sums over each ``[a, b]``
    with ``panels`` panels come out in that order.  Consecutive segments
    share one call of ``f`` while their nodes total at most ``_MAX_NODES``;
    each row of a segment is summed alone, in node order, so every sum is
    bitwise the one a call per segment gives.  ``f`` returns a new array,
    which the sums overwrite.

    A segment is checked when its sums are taken: it raises
    :class:`QuadratureError` rather than evaluate more than ``_MAX_NODES``
    nodes or sum non-finite values.  So the errors fire in segment order,
    where the caller first uses the failing segment.
    """
    start = 0
    while start < len(segments):
        stop, size = start, 0
        while stop < len(segments) and size + segments[stop][2] * _GAUSS_ORDER <= _MAX_NODES:
            size += segments[stop][2] * _GAUSS_ORDER
            stop += 1
        if stop == start:
            a, b, panels = segments[start]
            raise QuadratureError(
                f"radial quadrature did not converge: a panel sum on [{a:g}, {b:g}] "
                f"would need {panels * _GAUSS_ORDER} nodes (limit {_MAX_NODES})")
        for (a, b, _), (finite, sums) in zip(segments[start:stop],
                                             _pack_sums(f, live, segments[start:stop])):
            if not finite:
                raise QuadratureError(
                    f"radial quadrature did not converge: non-finite integrand values "
                    f"on [{a:g}, {b:g}]")
            yield sums
        start = stop


def _refined_integral(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      live: np.ndarray, a: float, b: float, panels: int,
                      first: Iterator[np.ndarray], rtol: float,
                      atol: np.ndarray) -> np.ndarray:
    """Integrals of the ``live`` rows of ``f`` over ``[a, b]`` by panel doubling.

    ``first`` yields the panel sums at ``panels`` and ``2 panels``.  Each row
    stops at the first doubling where it changes by at most
    ``max(rtol * |value|, atol[row])`` and is left out of later panel sums.
    """
    out = np.empty(live.size)
    rows = np.arange(live.size)  # positions in ``live`` still refining
    prev, cur = next(first), next(first)
    panels *= 2  # the panel count of ``cur``
    for doubling in range(12):
        if doubling:
            panels *= 2
            (cur,) = _panel_sums(f, live[rows], [(a, b, panels)])
        done = np.abs(cur - prev) <= np.maximum(rtol * np.abs(cur), atol[rows])
        out[rows[done]] = cur[done]
        rows, prev = rows[~done], cur[~done]
        if rows.size == 0:
            return out
    raise QuadratureError(
        f"radial quadrature did not converge to rtol={rtol:g} on [{a:g}, {b:g}]"
    )


def _radial_integral(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     count: int, cutoff: float, panels0: int,
                     substitution_power: float) -> np.ndarray:
    """``int_0^inf f(s)[i] ds`` for each of ``count`` components.

    The variable is ``s = r^(1/q)``, ``q = substitution_power`` (``>= 1``),
    and ``cutoff`` is in ``r``: the body is ``[0, cutoff^(1/q)]``.
    ``f(s, live)`` carries the Jacobian ``q s^(q-1)`` itself, so its
    caller can form it with its own powers of ``r = s^q`` as one power of
    ``s``.  It returns the rows ``live`` (an index array) at the nodes ``s``
    as a new array of shape ``(live.size, s.size)``, so one kernel
    evaluation per node set serves every component.  Each row keeps its own
    convergence state, exactly as if it were integrated alone: panel
    doubling on the body to ``_BODY_RTOL``, then the truncation check on
    ``r`` in ``[cutoff, 2 cutoff]`` with an absolute floor of 1e-13 of its
    own body; a relative tail above 1e-12 doubles its cutoff, at most
    ``_CUTOFF_DOUBLINGS`` times.  Finished rows drop out of later panel sums.

    With ``h = panels0 // 2``, a cutoff's first integrand call (more past
    ``_MAX_NODES``) holds the body's sums at ``h`` and ``2 h`` panels
    (``2 h`` is ``panels0``, or ``panels0 - 1`` when that is odd) and a
    coarse tail sum at ``max(8, h)`` panels.  A body row that passes its
    first check is its ``2 h`` sum.  A coarse tail within its floor is the
    tail; the other rows take the tail at twice its panels in a second call
    and refine on.  One coarse sum of each suffices: on every shipped call
    the body's first check passes, its relative change at most 6.2e-12
    (3.4e-13 on the cancelling gap kernel, 2.6e-15 on the Gaussian norms)
    against ``_BODY_RTOL``, so ``h`` panels already resolve the integrand;
    and the tail floor is 10 times below the gate.
    """
    q = substitution_power
    totals = np.empty(count)
    live = np.arange(count)
    c = float(cutoff)
    half = int(panels0) // 2
    body_panels, tail_panels = max(2, half), max(8, half)
    for _ in range(_CUTOFF_DOUBLINGS + 1):
        lo, hi = c ** (1.0 / q), (2.0 * c) ** (1.0 / q)
        first = _panel_sums(f, live, [(0.0, lo, body_panels), (0.0, lo, 2 * body_panels),
                                      (lo, hi, tail_panels)])
        body = _refined_integral(f, live, 0.0, lo, body_panels, first, _BODY_RTOL,
                                 np.full(live.size, 1e-300))
        # a coarse tail within 1e-13 of the body is the tail; the rest refine
        floor = 1e-13 * np.maximum(np.abs(body), 1e-300)
        tail = next(first)
        rows = np.flatnonzero(np.abs(tail) > floor)
        if rows.size:
            fine = _panel_sums(f, live[rows], [(lo, hi, 2 * tail_panels)])
            tail[rows] = _refined_integral(f, live[rows], lo, hi, tail_panels,
                                           chain([tail[rows]], fine), 1e-6, floor[rows])
        total = body + np.maximum(tail, 0.0)
        done = np.abs(tail) <= 1e-12 * np.maximum(np.abs(total), 1e-300)
        totals[live[done]] = total[done]
        live = live[~done]
        if live.size == 0:
            return totals
        c *= 2.0
    raise QuadratureError(
        f"radial quadrature did not converge: tail check failed after "
        f"{_CUTOFF_DOUBLINGS} cutoff doublings (last cutoff {c:g})"
    )
