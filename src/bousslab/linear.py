"""Exact linear evolution: box propagation and continuum radial norms.

Two complementary evaluation routes for the same linear flow:

* :func:`linear_solution` applies the propagator symbols to the stacked
  half spectra ``(u_hat, ut_hat)`` of a periodic box (exact in time,
  spectral in space), at one time or at a vector of times in one kernel
  evaluation;
* :func:`linear_norm_radial` evaluates L^2-type norms of the evolution of
  radially symmetric data directly as one-dimensional continuum integrals
  over ``|xi|``, free of any box truncation, which is what makes decay-rate
  windows like t in [1e2, 1e4] reachable.  Its quadrature lives here too:
  :func:`_radial_integral` states the cutoff, panel rule and tolerances.

The radial route is also the reference for the gap between the evolution
and its asymptotic profile, whose kernels are subtracted before squaring so
the gap norm is not polluted by cancellation of two large integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .spectral import TWO_PI, Grid
from .symbols import ModelParams, profile_symbols, propagator

#: surface ``c_n`` of the unit sphere in R^n, n = 1, 2, 3: a radial field has
#: ``||u||^2 = c_n int r^(n-1) |u_hat(r)|^2 dr`` (unitary transform)
SPHERE_SURFACE = {1: 2.0, 2: TWO_PI, 3: 2.0 * TWO_PI}


class QuadratureError(RuntimeError):
    """Raised when the radial quadrature tail or refinement fails to converge."""


def linear_solution(grid: Grid, y0: np.ndarray, t, params: ModelParams) -> np.ndarray:
    """Linear flow over ``t`` of the stacked half spectra ``y0 = (u0_hat, u1_hat)``.

    A scalar ``t`` gives shape ``(2, *grid.half_shape)``; a vector of ``M``
    times gives ``(M, 2, *grid.half_shape)`` from one kernel evaluation.
    Times must be nonnegative.
    """
    t = np.asarray(t, dtype=np.float64)
    sym = propagator(grid.xi2_half, t.reshape(t.shape + (1,) * grid.n), params)
    return np.stack([sym.sine * y0[1] + sym.cosine * y0[0],
                     sym.sine_dt * y0[1] + sym.cosine_dt * y0[0]],
                    axis=-grid.n - 1)


# ---------------------------------------------------------------------------
# radially symmetric data and continuum norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialData:
    """Radially symmetric initial data with spectral profiles ``r^p u0_hat(r)``
    and ``r^p u1_hat(r)``, ``r = |xi|``.

    ``substitution_power = q`` (a finite real ``q >= 1``) is the radial
    quadrature substitution ``r = s^q`` that keeps an integrand with an
    integrable power singularity at ``r = 0`` smooth there.  ``power = p``
    (a finite real) is that singularity, kept out of the profiles so the
    quadrature forms it with its weight and Jacobian as one power of ``s``:
    where ``r = s^q`` underflows, ``r^(2p)`` alone would overflow.
    """

    u0_hat: Callable[[np.ndarray], np.ndarray]
    u1_hat: Callable[[np.ndarray], np.ndarray]
    cutoff_hint: float = 12.0
    substitution_power: float = 1.0
    power: float = 0.0

    def __post_init__(self) -> None:
        if not (self.cutoff_hint > 0.0):
            raise ValueError("cutoff hint must be positive")
        q, p = self.substitution_power, self.power
        if not (_finite_real(q) and q >= 1):
            raise ValueError(f"substitution power must be a finite real >= 1, got {q!r}")
        if not _finite_real(p):
            raise ValueError(f"power must be a finite real, got {p!r}")


def _finite_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _zero_profile(r: np.ndarray) -> np.ndarray:
    return np.zeros_like(np.asarray(r, dtype=np.float64))


def gaussian_profile(amplitude: float = 1.0, width: float = 1.0,
                     n: int = 1) -> Callable[[np.ndarray], np.ndarray]:
    """Spectral profile of ``amplitude * exp(-|x|^2 / (2 width^2))`` in R^n.

    Under the unitary transform convention this is
    ``amplitude * width^n * exp(-width^2 r^2 / 2)``.
    """
    if not (width > 0.0):
        raise ValueError("width must be positive")
    a = float(amplitude) * float(width) ** n
    w2 = float(width) ** 2

    def profile(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return a * np.exp(-0.5 * w2 * r * r)

    return profile


def gaussian_radial_data(amplitude: float = 1.0, width: float = 1.0, n: int = 1,
                         velocity_amplitude: float = 0.0) -> RadialData:
    """Gaussian displacement data (optionally Gaussian velocity data)."""
    u1 = (gaussian_profile(velocity_amplitude, width, n)
          if velocity_amplitude else _zero_profile)
    return RadialData(u0_hat=gaussian_profile(amplitude, width, n), u1_hat=u1,
                      cutoff_hint=max(8.0, 12.0 / float(width)))


def square_integrable_radial_data(n: int, eps: float = 0.2,
                                  amplitude: float = 1.0) -> RadialData:
    """Displacement profile ``amplitude * r^(-(n-eps)/2)`` on ``r <= 1``, zero
    velocity, for ``0 < eps < 1`` (the range of the config field ``data.eps``).

    The field is square integrable (the singularity is integrable) but not
    integrable in physical space, the regime where only the non-weighted
    decay rates ``(1+t)^(-k/2)`` survive.  The norm integrands behave like
    ``r^(eps - 1 + 2k)`` at ``r = 0``; under ``r = s^q`` the ``k = 0`` one
    becomes ``q s^(q eps - 1)``, which the power ``q = 1/eps`` makes
    constant (panel doubling converges slowly on a fractional power of ``s``).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"need 0 < eps < 1, got eps={eps}")
    a = float(amplitude)

    def support(r: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(r, dtype=np.float64) <= 1.0, a, 0.0)

    return RadialData(u0_hat=support, u1_hat=_zero_profile, cutoff_hint=1.0,
                      substitution_power=1.0 / eps, power=-0.5 * (n - eps))


_WHICH = ("linear", "gap")


#: late-time cutoff ``r^2 <= _ENVELOPE_EXPONENT / (|alpha| t)`` of the radial
#: norms (t >= 50).  In the oscillatory band ``|kernel|^2 <~ poly(r, t) *
#: exp(-|alpha| r^2 t / (1 + r^2))`` (``exp(alpha r^2 t)`` exactly for the
#: profile kernels and for alpha = -1): ``e^-64`` at the cutoff against the
#: 1e-12 relative tail gate (``e^-27.6``) of :func:`_radial_integral`.  Beyond
#: the band the slow real root rules: -1 at alpha = -1, but about -0.125 at
#: alpha = -10, r = 0.3, where the tail check refines and doubles the cutoff.
_ENVELOPE_EXPONENT = 64.0


def linear_norm_radial(data: RadialData, t: float, components: Sequence[tuple[str, int]],
                       n: int, params: ModelParams) -> list[float]:
    """Continuum L^2 norms at time ``t``, one per ``(which, k)`` of ``components``.

    Each value is ``sqrt(c_n int r^(2k+n-1) |W(r, t)|^2 dr)``, the norm of the
    order-``k`` radial derivative, where ``which`` selects the kernel ``W``:
    ``"linear"``, the full linear flow, or ``"gap"``, its difference from
    the asymptotic profile (subtracted before squaring, so the gap norm is
    not the cancellation of two large norms).  The integration variable is
    ``r = s^q`` with ``q = data.substitution_power``; the Jacobian, the
    weight and the data's ``r^(2p)``, ``p = data.power``, make one power of
    ``s``.

    All components share the cutoff and panel schedule at ``t`` (see
    :func:`_radial_integral`), so each integrand call evaluates
    ``propagator`` (and ``profile_symbols`` for the gap) once and weighs the
    kernel by its power of ``s`` per component; every component still
    converges on its own, so each value is bitwise the one a one-component
    call gives.  Overflow or NaN in the kernels raises
    :class:`QuadratureError`, with no numpy warning.
    """
    if n not in SPHERE_SURFACE:
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    for which, k in components:
        if which not in _WHICH:
            raise ValueError(f"which must be one of {_WHICH}, got {which!r}")
        if k < 0 or int(k) != k:
            raise ValueError(f"derivative order must be a nonnegative integer, got {k}")
    q, p = data.substitution_power, data.power
    whiches = [which for which, _ in components]
    # r^(2k+n-1) (r^p W)^2 dr = q s^e W^2 ds, e the sum of the weight's, the
    # Jacobian's and the data's powers of s: finite where r = s^q underflows
    powers = [q * (2 * int(k) + n - 1) + (q - 1.0) + 2.0 * q * p for _, k in components]

    def integrand(s: np.ndarray, live: np.ndarray) -> np.ndarray:
        r = s if q == 1 else s**q
        xi2 = r * r
        need = {whiches[i] for i in live}
        u0, u1 = data.u0_hat(r), data.u1_hat(r)
        sym = propagator(xi2, t, params)
        kernels = {}
        if "linear" in need:
            kernels["linear"] = sym.sine * u1 + sym.cosine * u0
        if "gap" in need:
            g0, h0 = profile_symbols(xi2, t, params)
            # subtracted before squaring: no cancellation of two large norms
            kernels["gap"] = (sym.sine - g0) * u1 + (sym.cosine - h0) * u0
        out = np.empty((live.size, s.size))
        for row, i in zip(out, live):
            w = kernels[whiches[i]]
            if powers[i]:
                np.multiply(s**powers[i], w, out=row)
                row *= w
            else:
                np.multiply(w, w, out=row)
        if q != 1:
            out *= q
        return out

    cutoff = data.cutoff_hint
    if t >= 50.0:
        cutoff = min(cutoff, math.sqrt(_ENVELOPE_EXPONENT / (abs(params.alpha) * t)))
    cycles = cutoff * (t + 1.0) / (2.0 * math.pi)
    panels0 = int(3.0 * cycles) + 8
    # an overflow or NaN anywhere in the kernels reaches the quadrature's
    # non-finite check, which names the interval; numpy's warning would not
    with np.errstate(all="ignore"):
        values = _radial_integral(integrand, len(components), cutoff, panels0, q)
    return [math.sqrt(max(SPHERE_SURFACE[n] * v, 0.0)) for v in values]


# ---------------------------------------------------------------------------
# radial quadrature
# ---------------------------------------------------------------------------

#: most nodes one integrand call may see: a panel sum that needs more raises,
#: and the panel sums batched into one call total at most this many nodes
_MAX_NODES = 2**20

#: Gauss-Legendre nodes per panel, and the nodes of its Kronrod extension
_GAUSS_ORDER = 12
_KRONROD_ORDER = 2 * _GAUSS_ORDER + 1

#: relative tolerance of the panel doubling over the body ``[0, cutoff]``,
#: three orders above the tail gate's 1e-12
_BODY_RTOL = 1e-9

#: most cutoff doublings the tail check asks for before it raises
_CUTOFF_DOUBLINGS = 3

#: the Gauss-Kronrod pair G12/K25 on [-1, 1], by its symmetry through the
#: nodes x >= 0 alone: ``(x, G12 weight, K25 weight)`` at the Gauss nodes,
#: whose x and G12 weight are bitwise those of
#: ``numpy.polynomial.legendre.leggauss(12)``; then ``(x, K25 weight)`` at
#: the Kronrod nodes, x = 0 first.  The Kronrod nodes are the roots of the
#: Stieltjes polynomial E_13, orthogonal to P_12 x^k for k <= 12, and the K25
#: weights solve the moment equations; both are rounded to float64 from a
#: 50-digit derivation, which ``tests/test_gauss_kronrod.py`` repeats.  K25
#: is exact to degree 37 (Laurie, Math. Comp. 66, 1997).
_GAUSS_HALF = (
    (0.1252334085114689, 0.2491470458134027, 0.12458416453615608),
    (0.3678314989981802, 0.2334925365383546, 0.11671205350175683),
    (0.5873179542866175, 0.20316742672306573, 0.10164973227906028),
    (0.7699026741943047, 0.16007832854334642, 0.0799202753336017),
    (0.9041172563704748, 0.10693932599531907, 0.05369701760775625),
    (0.9815606342467192, 0.04717533638651141, 0.023036084038982232))
_KRONROD_HALF = (
    (0.0, 0.12555689390547434),
    (0.2485057483204693, 0.12162630352394839),
    (0.48133945047815707, 0.11002260497764407),
    (0.6840598954700559, 0.09154946829504922),
    (0.8435581241611533, 0.06725090705083993),
    (0.9505377959431213, 0.038915230469299476),
    (0.9969339225295955, 0.008257711433168396))


@lru_cache(maxsize=1)
def _gauss_kronrod() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 25 nodes, the 12 G12 weights and the 25 K25 weights on [-1, 1].

    The Gauss nodes come first, in ``leggauss`` order, so the G12 rule is
    on the first ``_GAUSS_ORDER`` nodes.
    """
    g, k = np.array(_GAUSS_HALF), np.array(_KRONROD_HALF)
    return (np.concatenate([-g[::-1, 0], g[:, 0], -k[:0:-1, 0], k[:, 0]]),
            np.concatenate([g[::-1, 1], g[:, 1]]),
            np.concatenate([g[::-1, 2], g[:, 2], k[:0:-1, 1], k[:, 1]]))


def _pack_sums(f: Callable[[np.ndarray, np.ndarray], np.ndarray], live: np.ndarray,
               pack: Sequence[tuple[float, float, int, int]]
               ) -> list[tuple[bool, np.ndarray | tuple[np.ndarray, np.ndarray]]]:
    """``(finite, sums)`` per segment of ``pack``, from one call of ``f``.

    Apart from :func:`_panel_sums` so that the node values are freed before
    its caller takes the first sum and refines on.
    """
    x, gauss, kronrod = _gauss_kronrod()
    nodes, halves = [], []
    for a, b, panels, order in pack:
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        nodes.append((mid + half * x[None, :order]).ravel())
        halves.append(half)
    vals = np.asarray(f(np.concatenate(nodes), live), dtype=np.float64)
    nrows = len(vals)
    out = []
    start = 0
    for half, (_, _, panels, order) in zip(halves, pack):
        seg = vals[:, start:start + panels * order].reshape(nrows, panels, order)
        start += panels * order
        finite = bool(np.all(np.isfinite(seg)))
        # one sum per row along the contiguous node axis: the same summation
        # order as a scalar integrand
        if order == _GAUSS_ORDER:
            seg *= half * gauss
            out.append((finite, seg.reshape(nrows, -1).sum(axis=1)))
        else:
            embedded = seg[:, :, :_GAUSS_ORDER] * (half * gauss)
            seg *= half * kronrod
            out.append((finite, (seg.reshape(nrows, -1).sum(axis=1),
                                 embedded.reshape(nrows, -1).sum(axis=1))))
    return out


def _panel_sums(f: Callable[[np.ndarray, np.ndarray], np.ndarray], live: np.ndarray,
                segments: Sequence[tuple[float, float, int, int]]
                ) -> Iterator[np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """Composite panel sums of the ``live`` rows of ``f``, one per segment.

    ``segments`` lists ``(a, b, panels, order)``; the row sums over each
    ``[a, b]`` with ``panels`` panels come out in that order.  ``order`` is
    the rule's nodes per panel: ``_GAUSS_ORDER`` gives the G12 sums,
    ``_KRONROD_ORDER`` the pair of K25 sums and of the G12 sums on its
    embedded Gauss nodes.  Consecutive segments share one call of ``f``
    while their nodes total at most ``_MAX_NODES``; each row of a segment
    is summed alone, in node order, so every sum is bitwise the one a call
    per segment gives.  ``f`` returns a new array, which the sums
    overwrite.  A segment is checked when its sums are taken, so the
    :class:`QuadratureError` for more than ``_MAX_NODES`` nodes or for
    non-finite values fires where the caller first uses it.
    """
    sizes = [panels * order for _, _, panels, order in segments]
    start = 0
    while start < len(segments):
        stop, size = start, 0
        while stop < len(segments) and size + sizes[stop] <= _MAX_NODES:
            size += sizes[stop]
            stop += 1
        if stop == start:
            a, b, _, _ = segments[start]
            raise QuadratureError(
                f"radial quadrature did not converge: a panel sum on [{a:g}, {b:g}] "
                f"would need {sizes[start]} nodes (limit {_MAX_NODES})")
        for (a, b, _, _), (finite, sums) in zip(segments[start:stop],
                                                _pack_sums(f, live, segments[start:stop])):
            if not finite:
                raise QuadratureError(
                    f"radial quadrature did not converge: non-finite integrand values "
                    f"on [{a:g}, {b:g}]")
            yield sums
        start = stop


def _refined_integral(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      live: np.ndarray, a: float, b: float, panels: int, order: int,
                      value: np.ndarray, check: np.ndarray, rtol: float,
                      atol: np.ndarray) -> np.ndarray:
    """Integrals of the ``live`` rows of ``f`` over ``[a, b]`` by panel doubling.

    ``value`` holds the rows' sums on ``panels`` panels of the rule with
    ``order`` nodes and ``check`` what they are checked against: the
    embedded G12 sums on the same panels for K25, the G12 sums on half the
    panels for G12.  Each row stops at the first panel count where
    ``|value - check| <= max(rtol * |value|, atol[row])`` and is left out of
    later panel sums, which double the panels.
    """
    out = np.empty(live.size)
    rows = np.arange(live.size)  # positions in ``live`` still refining
    for doubling in range(12):
        if doubling:
            panels *= 2
            (sums,) = _panel_sums(f, live[rows], [(a, b, panels, order)])
            value, check = sums if order == _KRONROD_ORDER else (sums, value)
        done = np.abs(value - check) <= np.maximum(rtol * np.abs(value), atol[rows])
        out[rows[done]] = value[done]
        rows, value = rows[~done], value[~done]
        if rows.size == 0:
            return out
    raise QuadratureError(
        f"radial quadrature did not converge to rtol={rtol:g} on [{a:g}, {b:g}]")


def _radial_integral(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     count: int, cutoff: float, panels0: int,
                     substitution_power: float) -> np.ndarray:
    """``int_0^inf f(s)[i] ds`` for each of ``count`` components.

    The variable is ``s = r^(1/q)``, ``q = substitution_power`` (``>= 1``),
    and ``cutoff`` is in ``r``: the body is ``[0, cutoff^(1/q)]``.
    ``f(s, live)`` carries the Jacobian ``q s^(q-1)`` itself and returns the
    rows ``live`` (an index array) at the nodes ``s`` as a new array of
    shape ``(live.size, s.size)``, so one kernel evaluation per node set
    serves every component.

    The radial schedule, stated here once.  :func:`linear_norm_radial` sets
    ``cutoff`` to ``data.cutoff_hint``, at ``t >= 50`` cut to
    ``r^2 <= _ENVELOPE_EXPONENT / (|alpha| t)``, and ``panels0`` to
    ``int(3 cycles) + 8`` for the ``cycles = cutoff (t + 1) / 2 pi`` of
    ``t |xi|``.  With ``h = panels0 // 2``, a cutoff's first integrand call
    (more past ``_MAX_NODES``) holds the body's K25 sums on ``h`` panels,
    with the G12 sums on their embedded Gauss nodes, and a coarse G12 tail
    sum over ``r`` in ``[cutoff, 2 cutoff]`` on ``max(8, h)`` panels:
    ``37 h`` nodes for ``h >= 8``.  Each row then converges on its own, as
    if integrated alone, and drops out of later panel sums: the body's K25
    sum is its value once it is within ``_BODY_RTOL`` of its G12 sum, and
    the others double their panels with the same pair; a coarse tail within
    1e-13 of its body is the tail, the others take twice its panels in a
    second call and refine on; a relative tail above 1e-12 doubles the
    cutoff, at most ``_CUTOFF_DOUBLINGS`` times.

    On the shipped configs each cutoff takes one call of at most 7 215
    nodes; every body passes its first check, its relative ``|K25 - G12|``
    at most 6.3e-12 (1.7e-13 on the cancelling gap kernel, 2.5e-15 on the
    Gaussian norms); every integral is within 2.6e-13 of its value at 4
    times the panels; and the largest relative tail is 2.3e-24.
    """
    q = substitution_power
    totals = np.empty(count)
    live = np.arange(count)
    c = float(cutoff)
    body_panels = int(panels0) // 2
    tail_panels = max(8, body_panels)
    for _ in range(_CUTOFF_DOUBLINGS + 1):
        lo, hi = c ** (1.0 / q), (2.0 * c) ** (1.0 / q)
        first = _panel_sums(f, live, [(0.0, lo, body_panels, _KRONROD_ORDER),
                                      (lo, hi, tail_panels, _GAUSS_ORDER)])
        body = _refined_integral(f, live, 0.0, lo, body_panels, _KRONROD_ORDER, *next(first),
                                 _BODY_RTOL, np.full(live.size, 1e-300))
        # a coarse tail within 1e-13 of the body is the tail; the rest refine
        floor = 1e-13 * np.maximum(np.abs(body), 1e-300)
        tail = next(first)
        rows = np.flatnonzero(np.abs(tail) > floor)
        if rows.size:
            (fine,) = _panel_sums(f, live[rows], [(lo, hi, 2 * tail_panels, _GAUSS_ORDER)])
            tail[rows] = _refined_integral(f, live[rows], lo, hi, 2 * tail_panels,
                                           _GAUSS_ORDER, fine, tail[rows], 1e-6, floor[rows])
        total = body + np.maximum(tail, 0.0)
        done = np.abs(tail) <= 1e-12 * np.maximum(np.abs(total), 1e-300)
        totals[live[done]] = total[done]
        live = live[~done]
        if live.size == 0:
            return totals
        c *= 2.0
    raise QuadratureError(
        f"radial quadrature did not converge: tail check failed after "
        f"{_CUTOFF_DOUBLINGS} cutoff doublings (last cutoff {c:g})")
