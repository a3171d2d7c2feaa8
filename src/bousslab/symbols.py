"""Fourier-multiplier symbols of the linear evolution.

Each spatial frequency ``xi`` evolves independently under the mode ODE

    v'' + b(|xi|^2) v' + c(|xi|^2) v = source,
    b = |xi|^4 - alpha |xi|^2   (damping; alpha <= -1 keeps b >= 0),
    c = |xi|^2 + |xi|^4         (restoring),

whose characteristic roots are
``lambda_pm = (-b +- sqrt(b^2 - 4c)) / 2``.  The solution with initial data
``(v, v')(0) = (v0, v1)`` is ``v(t) = cosine * v0 + sine * v1`` where

    sine   = (exp(lambda_+ t) - exp(lambda_- t)) / (lambda_+ - lambda_-),
    cosine = (lambda_+ exp(lambda_- t) - lambda_- exp(lambda_+ t)) / (lambda_+ - lambda_-),

the damped analogues of ``sin(|xi| t)/|xi|`` and ``cos(|xi| t)`` (the "sine
and cosine families" of second-order Cauchy problems).  The kernels are
evaluated in float64 on the sign of the discriminant ``D = b^2 - 4c``:
conjugate and confluent roots (``D <= 0``) through the damped sinc
``exp(-bt/2) t sinc(omega t / pi)``, which is exact at confluence, and real
roots through the Vieta small root with a ``phi_1`` series near confluence,
so no complex root is taken and the two regimes meet without cancellation.
The complex roots and the phi functions of complex argument remain for the
exponential integrator weights.

Low frequencies behave like a damped wave,
``lambda_pm = +-i|xi| + (alpha/2)|xi|^2 + O(|xi|^3)``, which motivates the
explicit profile symbols ``exp(alpha |xi|^2 t / 2) sin(|xi| t)/|xi|`` and
``exp(alpha |xi|^2 t / 2) cos(|xi| t)`` used in the profile-gap experiments.

The per-mode energy bookkeeping

    energy      E  = (1+s) |v'|^2 + {(1+s)(s+s^2) + s(s^2 - alpha s)} |v|^2
                     + 2 s Re(v' conj(v)),       s = |xi|^2
    dissipation F  = {2(1+s)(s^2 - alpha s) - 2s} |v'|^2 + 2s(s+s^2) |v|^2
    reduced     E0 = |v'|^2 + s(1+s) |v|^2

satisfies ``dE/dt + F = 0`` along solutions and ``E ~ (1+s) E0``, giving the
exponential mode decay rate ``decay_envelope(s) = s / (1+s)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: |(lambda_+ - lambda_-) * t| below which the divided difference of the
#: exponential is evaluated by its phi_1 series instead of direct subtraction
_SERIES_SWITCH = 0.5


@dataclass(frozen=True)
class ModelParams:
    """Model constants: damping strength ``alpha`` and source weight ``beta``.

    The linear normalisation fixes the remaining coefficient to 1, which
    requires ``alpha <= -1`` (strong damping regime); ``beta > 0``.
    """

    alpha: float = -1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (self.alpha <= -1.0):
            raise ValueError(f"alpha must satisfy alpha <= -1, got {self.alpha}")
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta}")


def damping_coefficient(xi2, params: ModelParams):
    """b(|xi|^2) = |xi|^4 - alpha |xi|^2 (>= 0 for alpha <= -1)."""
    xi2 = np.asarray(xi2, dtype=np.float64)
    return xi2 * xi2 - params.alpha * xi2


def restoring_coefficient(xi2):
    """c(|xi|^2) = |xi|^2 + |xi|^4."""
    xi2 = np.asarray(xi2, dtype=np.float64)
    return xi2 + xi2 * xi2


@dataclass(frozen=True)
class RootPair:
    """Characteristic roots of the mode ODE at one or many |xi|^2."""

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray


def characteristic_roots(xi2, params: ModelParams) -> RootPair:
    """Roots of ``lam^2 + b lam + c = 0``; ``lambda_plus`` has Im >= 0.

    Both roots have nonpositive real part (dissipativity) and satisfy the
    Vieta identities ``lambda_+ + lambda_- = -b``, ``lambda_+ lambda_- = c``.
    """
    xi2 = np.asarray(xi2, dtype=np.float64)
    if np.any(xi2 < 0.0):
        raise ValueError("|xi|^2 must be nonnegative")
    b = damping_coefficient(xi2, params)
    c = restoring_coefficient(xi2)
    disc = b * b - 4.0 * c
    sq = np.sqrt(disc.astype(np.complex128))
    # principal sqrt of a negative real is +i sqrt(|disc|): Im(lambda_plus) >= 0
    lam_p = 0.5 * (-b + sq)
    lam_m = 0.5 * (-b - sq)
    # real-root case: -b + sq cancels for the small root; recover it from the
    # root product so both roots satisfy the residual contract
    real_pair = (disc > 0.0) & (b > 0.0)
    if np.any(real_pair):
        lam_p = np.where(real_pair, c / np.where(real_pair, lam_m, 1.0), lam_p)
    return RootPair(lambda_plus=lam_p, lambda_minus=lam_m)


# ---------------------------------------------------------------------------
# stable elementary pieces: expm1, the phi functions and the masked branch split
# ---------------------------------------------------------------------------


def _expm1c(z: np.ndarray) -> np.ndarray:
    """``exp(z) - 1`` for complex ``z`` without cancellation near 0.

    exp(x+iy) - 1 = expm1(x) + exp(x) * ((cos y - 1) + i sin y), and
    cos y - 1 = -2 sin(y/2)^2 is evaluated without subtraction.
    """
    z = np.asarray(z, dtype=np.complex128)
    x, y = z.real, z.imag
    ex = np.exp(x)
    return np.expm1(x) + ex * (-2.0 * np.sin(0.5 * y) ** 2 + 1j * np.sin(y))


_FACTORIALS = np.array([math.factorial(i) for i in range(24)], dtype=np.float64)


def _phi_series(k: int, z: np.ndarray) -> np.ndarray:
    """Power series of ``phi_k`` (Horner, 18 terms), real or complex like
    ``z``; accurate to rounding for ``|z| <= 1/2``."""
    series = np.zeros_like(z)
    for m in range(17, -1, -1):
        series = series * z + 1.0 / _FACTORIALS[m + k]
    return series


def _phi_recurrence(k: int, z: np.ndarray) -> np.ndarray:
    """``phi_k`` by upward recurrence from ``expm1``, for ``|z| >= 1/2``."""
    if k == 0:
        return np.exp(z)
    val = _expm1c(z) / z
    for j in range(1, k):
        val = (val - 1.0 / _FACTORIALS[j]) / z
    return val


def _split(mask: np.ndarray, on_true, on_false, *args) -> tuple[np.ndarray, ...]:
    """``on_true`` on the elements of ``args`` where ``mask`` holds, ``on_false``
    on the rest, their tuples of results stitched back into ``mask``'s shape.

    Each function sees only its own elements of the ``args``, which are
    broadcast to ``mask``'s shape before the gather; a mask that is all one
    value hands the arrays through whole, with no gather or scatter.
    """
    if mask.all():
        return on_true(*args)
    if not mask.any():
        return on_false(*args)
    rest = ~mask
    args = [a if np.shape(a) == mask.shape else np.broadcast_to(a, mask.shape)
            for a in args]
    inside = on_true(*(a[mask] for a in args))
    outside = on_false(*(a[rest] for a in args))
    stitched = []
    for x, y in zip(inside, outside):
        out = np.empty(mask.shape, dtype=np.result_type(x, y))
        out[mask] = x
        out[rest] = y
        stitched.append(out)
    return tuple(stitched)


def phi(k: int, z) -> np.ndarray:
    """Exponential remainder function ``phi_k``.

    ``phi_0 = exp``, ``phi_{k+1}(z) = (phi_k(z) - 1/k!) / z``, equivalently
    ``phi_k(z) = sum_{m>=0} z^m / (m+k)!``.  Series for |z| < 1/2, upward
    recurrence from ``expm1`` otherwise; both branches agree to rounding at
    the switch.  Each branch is evaluated only on its own elements.
    """
    z = np.asarray(z, dtype=np.complex128)
    (out,) = _split(np.abs(z) < _SERIES_SWITCH, lambda z: (_phi_series(k, z),),
                    lambda z: (_phi_recurrence(k, z),), z)
    return out


def phi_divided_difference(k: int, a, b) -> np.ndarray:
    """First divided difference ``(phi_k(a) - phi_k(b)) / (a - b)``, stable.

    Three regimes: a joint power series when both arguments are small, a
    centred-derivative expansion when they are nearly equal, and the direct
    quotient otherwise.  Used for the closed-form integrator weights, with
    the same confluence guard as the propagator symbols.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape, dtype=np.complex128)

    mag = np.maximum(np.abs(a), np.abs(b))
    both_small = mag < _SERIES_SWITCH
    near = (~both_small) & (np.abs(a - b) <= 1e-3 * np.maximum(1.0, mag))
    direct = ~(both_small | near)

    if np.any(both_small):
        aa, bb = a[both_small], b[both_small]
        # sum_j p_j(a, b) / (j + k + 1)!, p_j = sum_{i<=j} a^i b^(j-i)
        acc = np.zeros_like(aa)
        p = np.ones_like(aa)
        acc = acc + p / _FACTORIALS[k + 1]
        bpow = np.ones_like(bb)
        for j in range(1, 18):
            bpow = bpow * bb
            p = aa * p + bpow
            acc = acc + p / _FACTORIALS[j + k + 1]
        out[both_small] = acc

    if np.any(near) and k == 0:
        # (e^a - e^b) / (a - b) = e^m sinh(h) / h, h = (a - b) / 2, for any
        # separation; the band is relative, so |a - b| reaches 1e-3 |a|, where
        # the truncated expansion below would lose e^m d^4 / 1920
        m = 0.5 * (a[near] + b[near])
        h = 0.5 * (a[near] - b[near])
        tiny = np.abs(h) < 1e-4
        hs = np.where(tiny, 1.0, h)
        out[near] = np.exp(m) * np.where(tiny, 1.0 + h * h / 6.0, np.sinh(hs) / hs)
    elif np.any(near):
        m = 0.5 * (a[near] + b[near])
        d = a[near] - b[near]
        pk = [phi(k + j, m) for j in range(4)]
        first = pk[0] - k * pk[1]
        third = (pk[0] - 3 * k * pk[1] + 3 * k * (k + 1) * pk[2]
                 - k * (k + 1) * (k + 2) * pk[3])
        out[near] = first + (d * d / 24.0) * third

    if np.any(direct):
        aa, bb = a[direct], b[direct]
        out[direct] = (phi(k, aa) - phi(k, bb)) / (aa - bb)
    return out


class PropagatorSymbols:
    """Per-frequency solution kernels and their time derivatives, in float64.

    ``sine`` maps initial velocity to displacement, ``cosine`` maps initial
    displacement to displacement; ``*_dt`` are their t-derivatives, so the
    per-mode state evolves by the 2x2 matrix [[cosine, sine],
    [cosine_dt, sine_dt]], with exact initial values sine=0, cosine=1,
    sine_dt=1, cosine_dt=0 at t=0.  ``sine`` and ``cosine`` are evaluated
    up front; the derivatives are built on first access from the branch
    pieces ``sine_dt = base + rate * sine`` and ``cosine_dt = -c * sine``,
    so a caller that reads only the kernels never pays for them.
    """

    def __init__(self, sine: np.ndarray, cosine: np.ndarray, base: np.ndarray,
                 rate: np.ndarray, c: np.ndarray):
        self.sine = sine
        self.cosine = cosine
        self._base, self._rate, self._c = base, rate, c

    @cached_property
    def sine_dt(self) -> np.ndarray:
        return self._base + self._rate * self.sine

    @cached_property
    def cosine_dt(self) -> np.ndarray:
        return -self._c * self.sine


def _conjugate_kernels(b, disc, t):
    """``(sine, cosine, base, rate)`` for conjugate or confluent roots."""
    rate = -0.5 * b
    base = np.exp(rate * t)
    wt = 0.5 * np.sqrt(-disc) * t
    sine = base * t * np.sinc(wt / math.pi)
    base *= np.cos(wt)
    return sine, base - rate * sine, base, rate


def _series_sine(t, em, z, lam_p, delta):
    return (t * em * _phi_series(1, z),)


def _direct_sine(t, em, z, lam_p, delta):
    return ((np.exp(lam_p * t) - em) / delta,)


def _real_kernels(b, disc, c, t, force: str | None):
    """``(sine, cosine, base, rate)`` for real roots."""
    lam_m = -0.5 * (b + np.sqrt(disc))
    lam_p = c / lam_m
    delta = lam_p - lam_m
    z = delta * t
    em = np.exp(lam_m * t)
    series = z <= _SERIES_SWITCH if force is None else np.full(z.shape, force == "series")
    (sine,) = _split(series, _series_sine, _direct_sine, t, em, z, lam_p, delta)
    return sine, em - lam_m * sine, em, lam_p


def propagator(xi2, t, params: ModelParams, _force_branch: str | None = None) -> PropagatorSymbols:
    """Solution kernels of the mode ODE at (possibly arrays of) ``|xi|^2, t >= 0``.

    Real arithmetic throughout, split on the discriminant ``D = b^2 - 4c``;
    with ``base`` and ``rate`` per branch, ``cosine = base - (-b - rate) sine``
    and ``sine_dt = base + rate * sine``.

    Conjugate or confluent roots (``D <= 0``), ``omega = sqrt(-D) / 2``:
    ``sine = exp(-bt/2) t sinc(omega t / pi)``, exact at ``omega = 0`` and at
    ``t = 0``; ``base = exp(-bt/2) cos(omega t)`` and ``rate = -b/2``.

    Real roots (``D > 0``): ``lam_- = -(b + sqrt(D)) / 2`` and the small root
    ``lam_+ = c / lam_-`` (Vieta, no cancellation).  With
    ``z = (lam_+ - lam_-) t``, ``sine = t exp(lam_- t) phi_1(z)`` when
    ``z <= 1/2``, exact at confluent roots and at t = 0, and the direct
    quotient ``(exp(lam_+ t) - exp(lam_- t)) / (lam_+ - lam_-)`` otherwise;
    ``base = exp(lam_- t)`` and ``rate = lam_+``.  So ``sine_dt`` carries the
    small root explicitly; the equal ``cosine - b sine`` subtracts two terms
    of size ``|lam_-| sine`` and cancels at high frequency.

    ``cosine_dt = -c sine`` on both.  ``_force_branch`` ("series"/"direct")
    pins the real-root branch, for branch-agreement checks only.
    """
    xi2 = np.asarray(xi2, dtype=np.float64)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0):
        raise ValueError("time must be nonnegative")
    if np.any(xi2 < 0.0):
        raise ValueError("|xi|^2 must be nonnegative")
    b = damping_coefficient(xi2, params)
    c = restoring_coefficient(xi2)
    disc = b * b - 4.0 * c
    sine, cosine, base, rate = _split(
        np.broadcast_to(disc <= 0.0, np.broadcast_shapes(disc.shape, t_arr.shape)),
        lambda b, disc, c, t: _conjugate_kernels(b, disc, t),
        lambda b, disc, c, t: _real_kernels(b, disc, c, t, _force_branch),
        b, disc, c, t_arr)
    return PropagatorSymbols(sine, cosine, base, rate, c)


def profile_symbols(xi2, t, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Low-frequency asymptotic kernels (damped sinc and damped cosine).

    ``profile_sine = exp(alpha |xi|^2 t / 2) sin(|xi| t) / |xi|`` (value t at
    xi = 0) and ``profile_cosine = exp(alpha |xi|^2 t / 2) cos(|xi| t)``.
    These are the leading behaviour of ``sine``/``cosine`` for |xi| -> 0.
    """
    xi2 = np.asarray(xi2, dtype=np.float64)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(xi2 < 0.0):
        raise ValueError("|xi|^2 must be nonnegative")
    if np.any(t_arr < 0.0):
        raise ValueError("time must be nonnegative")
    r = np.sqrt(xi2)
    damp = np.exp(0.5 * params.alpha * xi2 * t_arr)
    # sin(r t)/r = t * sinc(r t / pi), exact at r = 0
    g0 = damp * t_arr * np.sinc(r * t_arr / math.pi)
    h0 = damp * np.cos(r * t_arr)
    return g0, h0


def decay_envelope(xi2) -> np.ndarray:
    """Exponential mode decay rate shape ``|xi|^2 / (1 + |xi|^2)``."""
    xi2 = np.asarray(xi2, dtype=np.float64)
    return xi2 / (1.0 + xi2)


@dataclass(frozen=True)
class ModeEnergy:
    """Per-mode energy, its dissipation functional, and the reduced energy."""

    energy: np.ndarray
    dissipation: np.ndarray
    reduced: np.ndarray


def mode_energy(xi2, v_hat, vdot_hat, params: ModelParams) -> ModeEnergy:
    """Energy bookkeeping for one mode; ``d(energy)/dt + dissipation = 0``.

    ``energy`` is equivalent to ``(1 + |xi|^2) * reduced`` with constants
    independent of xi, which is what turns the identity into the exponential
    envelope ``exp(-c * decay_envelope(xi2) * t)``.
    """
    s = np.asarray(xi2, dtype=np.float64)
    v = np.asarray(v_hat, dtype=np.complex128)
    w = np.asarray(vdot_hat, dtype=np.complex128)
    b = damping_coefficient(s, params)
    c = restoring_coefficient(s)
    av2 = np.abs(v) ** 2
    aw2 = np.abs(w) ** 2
    cross = (w * np.conj(v)).real
    energy = (1.0 + s) * aw2 + ((1.0 + s) * c + s * b) * av2 + 2.0 * s * cross
    dissipation = (2.0 * (1.0 + s) * b - 2.0 * s) * aw2 + 2.0 * s * c * av2
    reduced = aw2 + s * (1.0 + s) * av2
    return ModeEnergy(energy=energy, dissipation=dissipation, reduced=reduced)
