"""Exact linear evolution: box propagation and continuum radial norms.

Two complementary evaluation routes for the same linear flow:

* :func:`linear_solution` applies the propagator symbols to the stacked
  half spectra ``(u_hat, ut_hat)`` of a periodic box (exact in time,
  spectral in space), at one time or at a vector of times in one kernel
  evaluation;
* :func:`linear_norm_radial` evaluates L^2-type norms of the evolution of
  radially symmetric data directly as one-dimensional continuum integrals
  over ``|xi|``, free of any box truncation, which is what makes decay-rate
  windows like t in [1e2, 1e4] reachable.  At late times the integrals run
  only where the kernels live: the squared kernels carry the envelope
  ``exp(alpha |xi|^2 t)``, so the domain ends at ``|xi|^2 = 64 / (|alpha| t)``,
  where that envelope is ``e^-64``; the tail check of the quadrature still
  verifies the truncation, and its largest relative tail on the shipped
  configs is 2.3e-24 against a 1e-12 gate.

The radial route is also the reference for the gap between the evolution
and its asymptotic profile, whose kernels are subtracted before squaring so
the gap norm is not polluted by cancellation of two large integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .spectral import SPHERE_SURFACE, Grid, _radial_integral
from .symbols import ModelParams, profile_symbols, propagator


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
#: 1e-12 relative tail gate (``e^-27.6``) of ``spectral._radial_integral``;
#: the largest shipped tail is 2.3e-24.  Beyond the band the slow real root
#: rules: -1 at alpha = -1, but about -0.125 at alpha = -10, r = 0.3, where
#: the tail check refines and doubles the cutoff.
_ENVELOPE_EXPONENT = 64.0


def linear_norm_radial(data: RadialData, t: float, components: Sequence[tuple[str, int]],
                       n: int, params: ModelParams) -> list[float]:
    """Continuum L^2 norms at time ``t``, one per ``(which, k)`` of ``components``.

    Each value is ``sqrt(c_n int r^(2k+n-1) |W(r, t)|^2 dr)``, the norm of the
    order-``k`` radial derivative, where ``which`` selects the kernel ``W``:
    ``"linear"``, the full linear flow, or ``"gap"``, its difference from
    the asymptotic profile (subtracted before squaring, so the gap norm is
    not the cancellation of two large norms).  The panel count follows the
    ``t |xi|`` oscillation, and the integration variable is ``r = s^q``
    with ``q = data.substitution_power``; the Jacobian, the weight and the
    data's ``r^(2p)``, ``p = data.power``, make one power of ``s``.

    The domain is ``[0, data.cutoff_hint]``, at ``t >= 50`` cut to
    ``r^2 <= 64 / (|alpha| t)`` (see ``_ENVELOPE_EXPONENT``); the tail check
    still verifies it.

    All components share the cutoff and panel schedule at ``t``, so each
    integrand call evaluates ``propagator`` (and ``profile_symbols`` for the
    gap) once and weighs the kernel by its power of ``s`` per component;
    every component still converges on its own (see
    ``spectral._radial_integral``), so each value is bitwise the one a
    one-component call gives.  One call covers the body's first two panel
    sums, at half the panel count above and at that count, and the tail's
    coarse sum, so a time whose body converges at once and whose coarse
    tails are below their floor costs one kernel evaluation.  On the shipped
    configs every body converges at once, its relative change at most
    6.2e-12 against ``spectral._BODY_RTOL``, and every integral agrees with
    its value at 4 times the panel count to 3.7e-13.
    Overflow or NaN in the kernels raises the quadrature's
    :class:`~bousslab.spectral.QuadratureError`, with no numpy warning.
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
    panels0 = max(8, int(3.0 * cycles) + 8)
    # an overflow or NaN anywhere in the kernels reaches the quadrature's
    # non-finite check, which names the interval; numpy's warning would not
    with np.errstate(all="ignore"):
        values = _radial_integral(integrand, len(components), cutoff, panels0, q)
    return [math.sqrt(max(SPHERE_SURFACE[n] * v, 0.0)) for v in values]
